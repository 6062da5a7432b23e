"""Core contribution: system design points and the training simulator."""
