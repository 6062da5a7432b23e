"""Host-side substrate: CPU sockets and the PCIe interface."""
