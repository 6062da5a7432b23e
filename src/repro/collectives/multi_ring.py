"""Striping collectives across multiple rings.

Topology-aware collective libraries cast the interconnect into several
ring networks and stripe each operation across them proportionally to
ring bandwidth; the operation completes when the slowest ring finishes.
This is how the unbalanced rings of the paper's Figure 7(a)/(b) designs
hurt: the 20-hop ring bottlenecks the whole collective (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.ring_algorithm import (DEFAULT_SPEC, CollectiveSpec,
                                              Primitive, collective_time)


@dataclass(frozen=True)
class RingChannel:
    """One logical ring as the collective scheduler sees it.

    ``size`` counts every node on the cycle (forwarding memory-nodes
    included); ``bandwidth`` is the rate the ring algorithm can sustain
    around the cycle (bi-directional capacity for a duplex ring).
    """

    size: int
    bandwidth: float

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("ring size must be >= 2")
        if self.bandwidth <= 0:
            raise ValueError("ring bandwidth must be positive")


def stripe_bytes(channels: list[RingChannel], nbytes: float) -> list[float]:
    """Split a message across rings proportionally to bandwidth."""
    if not channels:
        raise ValueError("no rings to stripe over")
    total_bw = sum(c.bandwidth for c in channels)
    return [nbytes * c.bandwidth / total_bw for c in channels]


def striped_collective_time(primitive: Primitive,
                            channels: list[RingChannel],
                            nbytes: float,
                            spec: CollectiveSpec = DEFAULT_SPEC) -> float:
    """Latency of one collective striped across ``channels``."""
    if nbytes < 0:
        raise ValueError("negative message size")
    if nbytes == 0:
        return 0.0
    shares = stripe_bytes(channels, nbytes)
    return max(
        collective_time(primitive, c.size, share, c.bandwidth, spec)
        for c, share in zip(channels, shares))
