"""DNN memory virtualization substrate (Table I, Figure 10)."""
