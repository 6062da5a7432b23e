"""Collective communication substrate (ring algorithm, Figure 9)."""
