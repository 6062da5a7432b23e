"""CUDA-style runtime API extensions for ``device-remote`` memory.

Paper Table I introduces three extensions to the CUDA runtime so
existing DL frameworks can exploit memory-nodes transparently:

=====================  =====================================================
``cudaMallocRemote``   allocate in device-remote memory, return a pointer
``cudaFreeRemote``     free a device-remote allocation
``cudaMemcpyAsync``    gains ``LocalToRemote`` / ``RemoteToLocal`` directions
=====================  =====================================================

This module implements a functional model of that API: allocations get
real (modeled) virtual addresses backed by page mappings from the
:class:`~repro.vmem.allocator.RemoteAllocator`, and async copies return
events whose completion times follow the Figure 10 latency algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.enums import Enum
from repro.units import GBPS
from repro.vmem.allocator import (PlacementPolicy, RemoteAllocator,
                                  transfer_latency)
from repro.vmem.driver import (PAGE_BYTES, AddressSpaceLayout, PageMapping,
                               default_layout)


class CopyDirection(Enum):
    """``cudaMemcpyAsync`` directions, extended per Table I."""

    HOST_TO_LOCAL = "HostToDevice"
    LOCAL_TO_HOST = "DeviceToHost"
    LOCAL_TO_REMOTE = "LocalToRemote"
    REMOTE_TO_LOCAL = "RemoteToLocal"


@dataclass(frozen=True)
class RemotePtr:
    """An opaque device-remote pointer returned by ``malloc_remote``."""

    address: int
    size: int


@dataclass(frozen=True)
class CopyEvent:
    """Completion record of one async copy."""

    src: int
    dst: int
    size: int
    direction: CopyDirection
    issue_time: float
    duration: float

    @property
    def complete_time(self) -> float:
        return self.issue_time + self.duration


@dataclass
class DeviceRuntime:
    """The per-device runtime state behind the Table I API.

    ``n_links``/``link_bw`` size the remote channel; host copies use
    ``host_link_bw`` (the legacy PCIe path).  A monotonically advancing
    ``clock`` orders async events; tests drive it explicitly.
    """

    layout: AddressSpaceLayout = field(default_factory=default_layout)
    policy: PlacementPolicy = PlacementPolicy.BW_AWARE
    n_links: int = 6
    link_bw: float = 25 * GBPS
    host_link_bw: float = 16 * GBPS
    clock: float = 0.0

    def __post_init__(self) -> None:
        self._allocator = RemoteAllocator(self.layout, self.policy)
        self._allocations: dict[int, list[PageMapping]] = {}
        self._next_va = self.layout.left_base
        self._events: list[CopyEvent] = []

    # -- Table I API ---------------------------------------------------------

    def malloc_remote(self, size: int) -> RemotePtr:
        """``cudaMallocRemote``: place ``size`` bytes in remote memory."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        mappings = self._allocator.allocate(size)
        address = self._next_va
        self._next_va += len(mappings) * PAGE_BYTES
        self._allocations[address] = mappings
        return RemotePtr(address=address, size=size)

    def free_remote(self, ptr: RemotePtr) -> None:
        """``cudaFreeRemote``: release a remote allocation."""
        mappings = self._allocations.pop(ptr.address, None)
        if mappings is None:
            raise ValueError(f"pointer {ptr.address:#x} was not allocated "
                             "by malloc_remote (double free?)")
        self._allocator.release(mappings)

    def memcpy_async(self, src: int, dst: int, size: int,
                     direction: CopyDirection) -> CopyEvent:
        """``cudaMemcpyAsync`` with the extended direction set."""
        if size <= 0:
            raise ValueError("copy size must be positive")
        if direction in (CopyDirection.LOCAL_TO_REMOTE,
                         CopyDirection.REMOTE_TO_LOCAL):
            remote = dst if direction is CopyDirection.LOCAL_TO_REMOTE \
                else src
            self._check_remote_range(remote, size)
            duration = transfer_latency(size, self.policy, self.n_links,
                                        self.link_bw)
        else:
            duration = size / self.host_link_bw
        event = CopyEvent(src=src, dst=dst, size=size, direction=direction,
                          issue_time=self.clock, duration=duration)
        self._events.append(event)
        return event

    # -- Introspection ---------------------------------------------------------

    def _check_remote_range(self, address: int, size: int) -> None:
        for base, mappings in self._allocations.items():
            end = base + len(mappings) * PAGE_BYTES
            if base <= address and address + size <= end:
                return
        raise ValueError(
            f"remote range [{address:#x}, +{size}) is not allocated")

    def mappings_of(self, ptr: RemotePtr) -> list[PageMapping]:
        if ptr.address not in self._allocations:
            raise ValueError(f"pointer {ptr.address:#x} is not live")
        return list(self._allocations[ptr.address])

    @property
    def live_remote_bytes(self) -> int:
        return PAGE_BYTES * sum(len(m) for m in self._allocations.values())

    @property
    def events(self) -> list[CopyEvent]:
        return list(self._events)

    def advance_clock(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("the clock cannot run backwards")
        self.clock += seconds
