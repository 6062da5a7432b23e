"""Host-time arithmetic: speed normalisation and percentiles.

The machine this benchmark was tuned on is a shared 2-core VM whose
single-thread speed drifts by up to 1.7x over tens of seconds (grid
passes of one process read anywhere from 210 to 370 ms).  Process CPU
time drifts with wall-clock, so the slowdown is the core itself, not
preemption.  Every host time is therefore scaled to a fixed reference
speed: a calibration kernel that shares no code with the program runs
before and after each measured interval, and the interval is multiplied
by ``REFERENCE_KERNEL_S / kernel time``.  The kernel is a list
scheduler over a seeded random DAG plus dict and sort churn -- the
same interpreter work the simulator's hot loops do -- so it slows down
in step with the program.  A change to the program cannot move the
kernel, so a real speed-up or slow-down passes through unscaled.
"""

from __future__ import annotations

import math

#: Calibration-kernel seconds at the reference speed: about what the
#: kernel takes on one idle core of the tuning machine.  Reported host
#: times are what that core would measure when uncontended.
REFERENCE_KERNEL_S = 0.0027

#: A percentile is reported only with at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10


def speed_factor(kernel_s: float) -> float:
    """Multiplier taking a host time measured at ``kernel_s`` kernel
    speed to the reference speed."""
    if kernel_s <= 0:
        raise ValueError("calibration kernel measured no time")
    return REFERENCE_KERNEL_S / kernel_s


def tail_rank(n: int, q: float) -> int:
    """1-based nearest-rank position of the ``q`` quantile of ``n``."""
    if n < 1 or not 0.0 < q <= 1.0:
        raise ValueError("need samples and a quantile in (0, 1]")
    return max(1, math.ceil(q * n))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q`` percentile."""
    return n - tail_rank(n, q)


def harrell_davis(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted
    mean of all order statistics centred on rank ``q * n``.  Where the
    samples have a gap at the quantile (the 10% of claims cells that
    run the zero-bubble search, say), the nearest-rank percentile jumps
    across the gap as a few samples change sides; this estimate moves
    with them smoothly."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n)
            + (b - 1) * math.log1p(-(i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(value - top) for value in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def percentile(samples, q: float) -> float:
    """The ``q`` percentile (Harrell-Davis), refused when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond its nearest rank."""
    n = len(samples)
    if samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has only "
            f"{samples_beyond(n, q)} beyond it; need {MIN_TAIL_SAMPLES}")
    return harrell_davis(samples, q)


def enough_samples(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES
