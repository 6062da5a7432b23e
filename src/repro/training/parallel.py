"""Parallel-training partitioning (paper Section II-C, Figure 3).

Two strategies, matching the evaluation:

* **Data-parallel**: every worker holds the full model and 1/P of the
  batch; the only synchronization is the ``dW`` all-reduce during
  backpropagation (recurrent cells accumulate ``dW`` across timesteps
  and synchronize once per weight group).
* **Model-parallel** (Krizhevsky-style [51]): every worker holds 1/P of
  each layer's units and the full batch; forward all-gathers each
  layer's output feature map and backward all-reduces the input
  gradients -- synchronization at every layer boundary, which is why
  model-parallelism stresses the device-side interconnect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.collectives.ring_algorithm import Primitive
from repro.dnn.graph import Network, weight_owners
from repro.dnn.layers import LayerKind
from repro.dnn.shapes import Gemm, grad_gemms
from repro.enums import Enum
from repro.units import FP32_BYTES


class ParallelStrategy(Enum):
    DATA = "data-parallel"
    MODEL = "model-parallel"
    #: Microbatched pipeline parallelism (GPipe / 1F1B): stages are
    #: contiguous layer groups, scheduled by :mod:`repro.pipeline`.
    PIPELINE = "pipeline-parallel"


@dataclass(frozen=True)
class SyncOp:
    """One collective a layer triggers."""

    primitive: Primitive
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError("sync size must be positive")


@dataclass(frozen=True)
class PartitionedLayer:
    """One layer's per-device work under a parallel strategy."""

    name: str
    kind: LayerKind
    fwd_gemms: tuple[Gemm, ...]
    bwd_gemms: tuple[Gemm, ...]
    fwd_stream_bytes: int
    #: Per-device bytes of this layer's output shard (what the memory
    #: virtualization runtime migrates on this device).
    out_shard_bytes: int
    fwd_sync: SyncOp | None
    bwd_sync: SyncOp | None
    is_cheap: bool

    @property
    def fwd_macs(self) -> int:
        return sum(g.macs for g in self.fwd_gemms)


def _shard_gemms(gemms: tuple[Gemm, ...], shards: int) -> tuple[Gemm, ...]:
    """Split each GEMM's output-feature dimension N across devices."""
    return tuple(Gemm(g.m, max(1, math.ceil(g.n / shards)), g.k,
                      a_reuse=g.a_reuse, c_reuse=g.c_reuse)
                 for g in gemms)


def _resolve_gemms(net: Network, batch: int, shards: int | None) \
        -> list[tuple[tuple[Gemm, ...], tuple[Gemm, ...]]]:
    """Per layer, in layer order: its forward GEMMs at ``batch`` (split
    N-wise over ``shards`` devices when given) and their gradient
    GEMMs.

    Each distinct ``layer.gemms`` tuple is resolved once, so layers
    with equal tuples (a recurrent network's timesteps) share one pair
    of tuples.
    """
    resolved: dict[tuple[Gemm, ...], tuple] = {}
    out = []
    for layer in net.layers:
        pair = resolved.get(layer.gemms)
        if pair is None:
            fwd = tuple(layer.fwd_gemms(batch))
            if shards is not None:
                fwd = _shard_gemms(fwd, shards)
            pair = resolved[layer.gemms] = (fwd, grad_gemms(fwd))
        out.append(pair)
    return out


def _input_bytes(net: Network, name: str, batch: int) -> int:
    return sum(net.layer(p).out_elems for p in net.predecessors(name)) \
        * batch * FP32_BYTES


def _partition_data(net: Network, batch: int,
                    n_devices: int) -> list[PartitionedLayer]:
    # Weak scaling, Section II-C: every worker holds the full model and
    # "is assigned a different batch of the overall training dataset" --
    # the batch size is per worker, so per-device compute and feature
    # maps do not shrink as devices are added (the global batch grows).
    local_batch = batch
    # Each weight buffer is all-reduced once, by its owner.  A shared
    # group's dW accumulates across its members, so its all-reduce
    # fires after the group's final backward step: at the
    # topologically first member, which owns it (backward runs in
    # reverse).
    owners = ({layer.name for layer in weight_owners(net.layers)}
              if n_devices > 1 else set())
    parts = []
    for layer, (fwd, bwd) in zip(net.layers,
                                 _resolve_gemms(net, local_batch, None)):
        bwd_sync = (SyncOp(Primitive.ALL_REDUCE, layer.weight_bytes)
                    if layer.name in owners else None)
        parts.append(PartitionedLayer(
            name=layer.name, kind=layer.kind,
            fwd_gemms=fwd, bwd_gemms=bwd,
            fwd_stream_bytes=layer.fwd_stream_bytes(local_batch),
            out_shard_bytes=layer.out_bytes(local_batch),
            fwd_sync=None, bwd_sync=bwd_sync,
            is_cheap=layer.is_cheap))
    return parts


def _partition_model(net: Network, batch: int,
                     n_devices: int) -> list[PartitionedLayer]:
    parts = []
    for layer, (fwd, bwd) in zip(net.layers,
                                 _resolve_gemms(net, batch, n_devices)):
        fwd_sync = None
        bwd_sync = None
        if n_devices > 1 and fwd and layer.kind is not LayerKind.INPUT:
            # Workers hold output shards; the next layer's split weights
            # consume the full feature map: all-gather Y.
            fwd_sync = SyncOp(Primitive.ALL_GATHER, layer.out_bytes(batch))
            # Each worker's weight shard yields a partial dX over the
            # full input: all-reduce the input gradients.
            in_bytes = _input_bytes(net, layer.name, batch)
            if in_bytes:
                bwd_sync = SyncOp(Primitive.ALL_REDUCE, in_bytes)
        # The all-gather materializes the *full* feature map on every
        # worker (it feeds the next layer's split weights), so that is
        # what the memory manager migrates per device -- model-parallel
        # training multiplies per-device virtualization traffic, which
        # is why it stresses DC-DLA even harder (Figure 11(b)).
        parts.append(PartitionedLayer(
            name=layer.name, kind=layer.kind,
            fwd_gemms=fwd, bwd_gemms=bwd,
            fwd_stream_bytes=max(
                1, layer.fwd_stream_bytes(batch) // n_devices)
            if layer.fwd_stream_bytes else 0,
            out_shard_bytes=layer.out_bytes(batch),
            fwd_sync=fwd_sync, bwd_sync=bwd_sync,
            is_cheap=layer.is_cheap))
    return parts


def partition(net: Network, batch: int, strategy: ParallelStrategy,
              n_devices: int) -> list[PartitionedLayer]:
    """Per-device layer work for one training iteration."""
    if n_devices <= 0:
        raise ValueError("need at least one device")
    if batch <= 0:
        raise ValueError("batch must be positive")
    if strategy is ParallelStrategy.PIPELINE:
        raise ValueError(
            "pipeline parallelism partitions the network into stages, "
            "not per-layer shards; use "
            "repro.pipeline.lowering.plan_pipeline")
    if strategy is ParallelStrategy.DATA:
        return _partition_data(net, batch, n_devices)
    return _partition_model(net, batch, n_devices)


def total_sync_bytes(parts: list[PartitionedLayer]) -> int:
    """Bytes synchronized per iteration (both directions of the step)."""
    total = 0
    for part in parts:
        for sync in (part.fwd_sync, part.bwd_sync):
            if sync is not None:
                total += sync.nbytes
    return total
