"""The device-node: PE array + HBM + high-bandwidth links.

Combines the compute model (:mod:`repro.accelerator.pe_array`) and the
memory model (:mod:`repro.accelerator.hbm`) into one timing primitive,
:meth:`DeviceSpec.op_time` (one kernel: a GEMM sequence or a streaming
pass).  Layers are timed from it in one place,
:func:`repro.core.pricing.layer_times`, which every execution mode
reads, pipeline stages and their zero-bubble B/W split included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.hbm import HBM_900, MemorySpec
from repro.accelerator.pe_array import PeArraySpec
from repro.interconnect.link import NVLINK, LinkSpec


@dataclass(frozen=True)
class DeviceSpec:
    """One accelerator device-node (paper Table II, upper half)."""

    name: str = "baseline-device"
    pe_array: PeArraySpec = field(default_factory=PeArraySpec)
    hbm: MemorySpec = HBM_900
    n_links: int = 6
    link: LinkSpec = NVLINK

    def __post_init__(self) -> None:
        if self.n_links <= 0:
            raise ValueError("device needs at least one link")

    @property
    def peak_macs_per_sec(self) -> float:
        return self.pe_array.peak_macs_per_sec

    @property
    def memory_capacity(self) -> int:
        return self.hbm.capacity

    @property
    def aggregate_link_bw(self) -> float:
        """Total uni-directional link bandwidth (300 GB/s baseline)."""
        return self.n_links * self.link.uni_bw

    def op_time(self, gemms, stream_bytes: int) -> float:
        """Time one kernel: a GEMM sequence, or a streaming pass."""
        if gemms:
            return sum(self.pe_array.gemm_time(g, self.hbm) for g in gemms)
        if stream_bytes:
            return self.pe_array.stream_time(stream_bytes, self.hbm)
        return 0.0


#: The paper's baseline device-node (Table II): 1024 PEs x 125 MACs at
#: 1 GHz (128 T-MAC/s, Volta-class), 900 GB/s HBM, 6 x 25 GB/s links.
BASELINE_DEVICE = DeviceSpec()
