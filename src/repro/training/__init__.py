"""Training-step modeling: parallelization and backprop expansion."""
