"""System-architecture composition: devices + interconnect + backing store.

A :class:`SystemConfig` is one concrete design point: the device-node
spec, the interconnect's collective ring channels, the virtualization
channel, the backing store's properties, and the host sockets.  The
simulator consumes nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.device import BASELINE_DEVICE, DeviceSpec
from repro.collectives.multi_ring import (RingChannel,
                                          striped_collective_time)
from repro.collectives.ring_algorithm import (DEFAULT_SPEC, CollectiveSpec,
                                              Primitive)
from repro.faults.model import FAULT_MODEL_ORDER
from repro.host.cpu import CpuSocketSpec
from repro.interconnect.builders import SystemTopology, VmemChannel, VmemTarget
from repro.memnode.memory_node import MemoryNodeSpec
from repro.units import US
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER


@dataclass(frozen=True)
class CollectiveModel:
    """Prices collectives over a design's ring channels."""

    channels: tuple[RingChannel, ...]
    spec: CollectiveSpec = DEFAULT_SPEC

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("a system needs at least one ring channel")

    def time(self, primitive: Primitive, nbytes: int) -> float:
        """Latency (seconds) of one collective of ``nbytes`` total."""
        if nbytes == 0:
            return 0.0
        return striped_collective_time(primitive, list(self.channels),
                                       nbytes, self.spec)

    @classmethod
    def from_topology(cls, topo: SystemTopology,
                      spec: CollectiveSpec = DEFAULT_SPEC) \
            -> "CollectiveModel":
        channels = tuple(RingChannel(size=h, bandwidth=bw)
                         for h, bw in topo.collective_channels())
        return cls(channels=channels, spec=spec)


@dataclass(frozen=True)
class VmemModel:
    """Prices backing-store transfers for one device."""

    channel: VmemChannel
    dma_setup: float = 2.0 * US
    #: Compression ratio applied to migrated traffic (the cDMA
    #: sensitivity study, Section V-B; 1.0 = no compression).
    compression: float = 1.0

    def __post_init__(self) -> None:
        if self.compression < 1.0:
            raise ValueError("compression ratio must be >= 1")
        if self.dma_setup < 0:
            raise ValueError("negative DMA setup time")

    @property
    def enabled(self) -> bool:
        return self.channel.target is not VmemTarget.NONE

    def transfer_time(self, nbytes: int,
                      contended_fraction: float = 1.0) -> float:
        """One offload or prefetch DMA of ``nbytes``.

        The virtualization channel rides the same links as collectives
        and weight streaming; during the ``contended_fraction`` of the
        iteration those are active the DMA runs at ``concurrent_bw``,
        and at ``peak_bw`` otherwise.  The default of 1 is the paper's
        always-contended pricing; 0 prices an idle channel.
        """
        if not 0.0 <= contended_fraction <= 1.0:
            raise ValueError("contended fraction must lie in [0, 1]")
        if not self.enabled:
            raise RuntimeError("oracle design has no migration channel")
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if nbytes == 0:
            return 0.0
        bw = (contended_fraction * self.channel.concurrent_bw
              + (1.0 - contended_fraction) * self.channel.peak_bw)
        return self.dma_setup + (nbytes / self.compression) / bw


@dataclass(frozen=True)
class SystemConfig:
    """One complete design point, ready to simulate."""

    name: str
    device: DeviceSpec = BASELINE_DEVICE
    n_devices: int = 8
    collectives: CollectiveModel = None  # type: ignore[assignment]
    vmem: VmemModel = None               # type: ignore[assignment]
    memory_node: MemoryNodeSpec | None = None
    host_socket: CpuSocketSpec | None = None
    #: vDNN pinned-buffer depth: how many offloads may be in flight
    #: before forward compute stalls (double buffering).
    offload_window: int = 2
    #: Prefetch lookahead in backward steps.
    prefetch_window: int = 2
    #: Pipeline-parallel depth (``ParallelStrategy.PIPELINE``); 0 means
    #: one stage per device.  Devices left over after staging form
    #: data-parallel replicas that all-reduce weight gradients at drain.
    pipeline_stages: int = 0
    #: Microbatches per iteration under pipeline parallelism.
    pipeline_microbatches: int = 8
    #: Microbatch schedule: ``"1f1b"`` or ``"gpipe"`` (a plain string so
    #: campaign replacements stay JSON-trivial; parsed by
    #: :mod:`repro.pipeline.schedules`).
    pipeline_schedule: str = "1f1b"
    #: Prefetch/eviction policy of the vmem offload path (a plain
    #: string for the same campaign-replacement reason; resolved by
    #: :func:`repro.vmem.prefetch.prefetch_policy`).  ``"on-demand"``
    #: is the seed's hard-wired bounded lookahead, byte-for-byte.
    prefetch_policy: str = "on-demand"
    #: Stash capacity (outstanding prefetched-but-unconsumed tensors)
    #: bounding the speculative policies; exceeding it forces eviction.
    prefetch_stash: int = 8
    #: Named fault scenario (a plain string for the same
    #: campaign-replacement reason; resolved by
    #: :func:`repro.faults.model.fault_model`).  ``"none"`` is inert:
    #: results are byte-identical to a build without the fault engine.
    fault_model: str = "none"

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ValueError("need at least one device")
        if self.collectives is None or self.vmem is None:
            raise ValueError("collectives and vmem models are required")
        if self.offload_window < 1 or self.prefetch_window < 1:
            raise ValueError("windows must be >= 1")
        if self.pipeline_stages < 0:
            raise ValueError("pipeline_stages must be >= 0")
        if self.pipeline_stages > self.n_devices:
            raise ValueError(
                f"pipeline_stages={self.pipeline_stages} exceeds "
                f"n_devices={self.n_devices}: every stage needs a "
                f"device of its own")
        if self.pipeline_microbatches < 1:
            raise ValueError("pipeline_microbatches must be >= 1")
        if self.prefetch_policy not in PREFETCH_POLICY_ORDER:
            raise ValueError(
                f"unknown prefetch policy {self.prefetch_policy!r}; "
                f"known: {', '.join(PREFETCH_POLICY_ORDER)}")
        if self.prefetch_stash < 1:
            raise ValueError("prefetch_stash must be >= 1")
        if self.fault_model not in FAULT_MODEL_ORDER:
            raise ValueError(
                f"unknown fault model {self.fault_model!r}; "
                f"known: {', '.join(FAULT_MODEL_ORDER)}")

    @property
    def virtualizes(self) -> bool:
        return self.vmem.enabled

    @property
    def uses_host_memory(self) -> bool:
        return self.vmem.channel.target is VmemTarget.HOST

    def total_memory_capacity(self) -> int:
        """Device HBM plus the attached memory-node pool, system-wide."""
        total = self.n_devices * self.device.memory_capacity
        if self.memory_node is not None:
            total += self.n_devices * self.memory_node.capacity
        return total
