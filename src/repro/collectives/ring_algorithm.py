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

import enum
import math
from dataclasses import dataclass

from repro.units import KB, US


class Primitive(enum.Enum):
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


# -- Functional reference implementations --------------------------------
#
# These execute the actual ring data movement on small integer vectors so
# tests can verify that the latency models above correspond to schedules
# that really compute the right answer.


def simulate_all_gather(contributions: list[list[int]]) -> list[list[int]]:
    """Run the ring all-gather schedule; returns each node's buffer."""
    n = len(contributions)
    if n < 2:
        raise ValueError("need at least 2 nodes")
    buffers: list[list[list[int] | None]] = [
        [None] * n for _ in range(n)]
    for i in range(n):
        buffers[i][i] = list(contributions[i])
    # Step s: node i forwards segment (i - s) mod n to node i + 1.
    for step in range(n - 1):
        moves = []
        for i in range(n):
            seg = (i - step) % n
            sent = buffers[i][seg]
            if sent is None:
                raise AssertionError("ring schedule lost a segment")
            moves.append(((i + 1) % n, seg, list(sent)))
        for dst, seg, payload in moves:
            buffers[dst][seg] = payload
    return [sum((seg for seg in buf if seg is not None), [])
            for buf in buffers]


def simulate_all_reduce(vectors: list[list[int]]) -> list[list[int]]:
    """Run ring reduce-scatter + all-gather; returns each node's sum."""
    n = len(vectors)
    if n < 2:
        raise ValueError("need at least 2 nodes")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise ValueError("vectors must have equal length")
    bounds = [(seg * length) // n for seg in range(n + 1)]
    partial = [list(v) for v in vectors]
    # Reduce-scatter: after n-1 steps node i holds the full sum of
    # segment (i + 1) mod n.
    for step in range(n - 1):
        moves = []
        for i in range(n):
            seg = (i - step) % n
            lo, hi = bounds[seg], bounds[seg + 1]
            moves.append(((i + 1) % n, seg, partial[i][lo:hi]))
        for dst, seg, payload in moves:
            lo, hi = bounds[seg], bounds[seg + 1]
            for offset, value in enumerate(payload):
                partial[dst][lo + offset] += value
    # All-gather the reduced segments.
    owners = {(i + 1) % n: i for i in range(n)}
    reduced: list[list[int] | None] = [None] * n
    for seg, owner in owners.items():
        lo, hi = bounds[seg], bounds[seg + 1]
        reduced[seg] = partial[owner][lo:hi]
    result_template = [seg for seg in reduced if seg is not None]
    flat = sum(result_template, [])
    return [list(flat) for _ in range(n)]


def simulate_broadcast(root_vector: list[int], n_nodes: int,
                       chunk: int = 4) -> list[list[int]]:
    """Run the pipelined ring broadcast; returns each node's buffer."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    chunks = [root_vector[i:i + chunk]
              for i in range(0, len(root_vector), chunk)] or [[]]
    received: list[list[list[int]]] = [[] for _ in range(n_nodes)]
    received[0] = [list(c) for c in chunks]
    # Stage t: node i forwards its (t - i)-th chunk to node i + 1.
    stages = (n_nodes - 2) + len(chunks)
    for stage in range(stages + 1):
        moves = []
        for i in range(n_nodes - 1):
            idx = stage - i
            if 0 <= idx < len(chunks) and idx < len(received[i]):
                moves.append((i + 1, list(received[i][idx])))
        for dst, payload in moves:
            received[dst].append(payload)
    return [sum(buf, []) for buf in received]
