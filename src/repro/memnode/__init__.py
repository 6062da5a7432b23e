"""Memory-node substrate (paper Figure 6, Table IV, Section V-C)."""
