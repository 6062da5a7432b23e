"""Accelerator device-node substrate (paper Table II, Figure 2)."""
