"""Ring-algorithm collective latency models.

Prior work (Chan et al. [34], NCCL [35]) shows ring algorithms achieve
optimal link-bandwidth utilization for the collectives parallel training
needs.  The models here follow the classic formulation the paper's
Figure 9 is built on:

* **all-gather** over a ring of *n* nodes runs ``n - 1`` steps, each node
  forwarding one ``S/n``-byte segment per step;
* **all-reduce** is a reduce-scatter followed by an all-gather:
  ``2 (n - 1)`` steps of ``S/n`` bytes;
* **broadcast** pipelines the message in fixed-size chunks around the
  ring: ``(n - 2) + ceil(S/c)`` chunk stages.

Each step pays the link's hop latency plus a per-chunk processing
overhead (protocol engine / DMA descriptor handling), which is what
makes long rings expensive for *small* messages -- exactly the effect
Figure 9 quantifies (and why the 16-node MC-DLA ring costs only ~7% over
the 8-node DC-DLA ring at an 8 MB synchronization size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.enums import Enum
from repro.units import KB, US


class Primitive(Enum):
    ALL_GATHER = "all-gather"
    ALL_REDUCE = "all-reduce"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class CollectiveSpec:
    """Tuning constants of the collective model.

    ``chunk_bytes`` matches Figure 9's 4 KB message granularity.
    """

    chunk_bytes: int = 4 * KB
    hop_latency: float = 0.7 * US
    chunk_overhead: float = 0.15 * US

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if self.hop_latency < 0 or self.chunk_overhead < 0:
            raise ValueError("latencies must be non-negative")


DEFAULT_SPEC = CollectiveSpec()


def _check(n_nodes: int, nbytes: float, ring_bw: float) -> None:
    if n_nodes < 2:
        raise ValueError("a ring needs at least 2 nodes")
    if nbytes < 0:
        raise ValueError("negative message size")
    if ring_bw <= 0:
        raise ValueError("ring bandwidth must be positive")


def _segment_step_time(segment_bytes: float, ring_bw: float,
                       spec: CollectiveSpec) -> float:
    """Time for every node to forward one segment to its neighbor."""
    chunks = max(1, math.ceil(segment_bytes / spec.chunk_bytes))
    return (spec.hop_latency + segment_bytes / ring_bw
            + chunks * spec.chunk_overhead)


def all_gather_time(n_nodes: int, nbytes: float, ring_bw: float,
                    spec: CollectiveSpec = DEFAULT_SPEC) -> float:
    """Ring all-gather: after ``n-1`` steps every node holds all ``S``.

    ``nbytes`` is the total gathered size (each node contributes S/n).
    """
    _check(n_nodes, nbytes, ring_bw)
    if nbytes == 0:
        return 0.0
    segment = nbytes / n_nodes
    return (n_nodes - 1) * _segment_step_time(segment, ring_bw, spec)


def all_reduce_time(n_nodes: int, nbytes: float, ring_bw: float,
                    spec: CollectiveSpec = DEFAULT_SPEC) -> float:
    """Ring all-reduce: reduce-scatter + all-gather, ``2 (n-1)`` steps."""
    _check(n_nodes, nbytes, ring_bw)
    if nbytes == 0:
        return 0.0
    segment = nbytes / n_nodes
    return 2 * (n_nodes - 1) * _segment_step_time(segment, ring_bw, spec)


def broadcast_time(n_nodes: int, nbytes: float, ring_bw: float,
                   spec: CollectiveSpec = DEFAULT_SPEC) -> float:
    """Pipelined ring broadcast in ``chunk_bytes`` chunks."""
    _check(n_nodes, nbytes, ring_bw)
    if nbytes == 0:
        return 0.0
    chunks = max(1, math.ceil(nbytes / spec.chunk_bytes))
    stage = (spec.hop_latency + min(nbytes, spec.chunk_bytes) / ring_bw
             + spec.chunk_overhead)
    return (n_nodes - 2 + chunks) * stage


_TIME_FNS = {
    Primitive.ALL_GATHER: all_gather_time,
    Primitive.ALL_REDUCE: all_reduce_time,
    Primitive.BROADCAST: broadcast_time,
}


def collective_time(primitive: Primitive, n_nodes: int, nbytes: float,
                    ring_bw: float,
                    spec: CollectiveSpec = DEFAULT_SPEC) -> float:
    """Dispatch on the primitive (see the per-primitive functions)."""
    return _TIME_FNS[primitive](n_nodes, nbytes, ring_bw, spec)
