"""Model builders for the eight Table III benchmarks."""
