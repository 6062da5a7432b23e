"""Common unit constants and formatting helpers.

Throughout the library, sizes are expressed in **bytes**, bandwidths in
**bytes per second**, times in **seconds**, and compute in **MACs**
(multiply-accumulate operations) unless a name says otherwise.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

# Vendors quote link/memory bandwidth in decimal units (1 GB/s = 1e9 B/s).
GBPS = 1e9

US = 1e-6

FP32_BYTES = 4


def fmt_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary suffix (e.g. ``1.5 GiB``)."""
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            return f"{value:.2f} {suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_time(seconds: float) -> str:
    """Render a duration with an adaptive unit (s / ms / us / ns)."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f} us"
    return f"{seconds * 1e9:.1f} ns"


def fmt_bandwidth(bytes_per_sec: float) -> str:
    """Render a bandwidth in decimal GB/s, the convention of the paper."""
    return f"{bytes_per_sec / GBPS:.1f} GB/s"


def harmonic_mean(values: list[float]) -> float:
    """Harmonic mean, the averaging the paper uses for all summary numbers."""
    if not values:
        raise ValueError("harmonic_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic_mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)
