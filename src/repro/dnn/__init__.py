"""DNN workload substrate: layers, network DAGs, and Table III models."""
