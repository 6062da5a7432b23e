"""Device-driver address-space model (paper Figure 10, Section III-B).

Under MC-DLA the driver manages its client device-node plus half of each
neighbouring memory-node as *one* device memory address space:

* ``device-local`` physical memory occupies the bottom of the space;
* the left and right memory-node halves are concatenated above it.

Existing system software (mmap) then maps the enlarged space to user
programs unchanged -- the device simply looks like a bigger-memory PCIe
device.  Pages are placed by :mod:`repro.vmem.allocator`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.enums import Enum
from repro.units import GB, MB

#: GPU large-page granularity used for remote placement.
PAGE_BYTES = 2 * MB


class Tier(Enum):
    """The three memory regions a page can live in."""

    LOCAL = "device-local"
    REMOTE_LEFT = "remote-left"
    REMOTE_RIGHT = "remote-right"


@dataclass(frozen=True)
class PageMapping:
    """One virtual page's physical placement."""

    virtual_page: int
    tier: Tier
    frame: int

    def __post_init__(self) -> None:
        if self.virtual_page < 0 or self.frame < 0:
            raise ValueError("negative page numbers")


@dataclass(frozen=True)
class AddressSpaceLayout:
    """The concatenated physical address space of Figure 10."""

    local_capacity: int
    left_half_capacity: int
    right_half_capacity: int

    def __post_init__(self) -> None:
        for value in (self.local_capacity, self.left_half_capacity,
                      self.right_half_capacity):
            if value <= 0 or value % PAGE_BYTES:
                raise ValueError(
                    "capacities must be positive multiples of the page size")

    @property
    def total_capacity(self) -> int:
        return (self.local_capacity + self.left_half_capacity
                + self.right_half_capacity)

    @property
    def local_base(self) -> int:
        return 0

    @property
    def left_base(self) -> int:
        """Remote halves start right above device-local memory."""
        return self.local_capacity

    @property
    def right_base(self) -> int:
        return self.local_capacity + self.left_half_capacity

    def tier_of_address(self, physical_address: int) -> Tier:
        if physical_address < 0 or physical_address >= self.total_capacity:
            raise ValueError(f"address {physical_address:#x} out of range")
        if physical_address < self.left_base:
            return Tier.LOCAL
        if physical_address < self.right_base:
            return Tier.REMOTE_LEFT
        return Tier.REMOTE_RIGHT

    def frame_count(self, tier: Tier) -> int:
        sizes = {Tier.LOCAL: self.local_capacity,
                 Tier.REMOTE_LEFT: self.left_half_capacity,
                 Tier.REMOTE_RIGHT: self.right_half_capacity}
        return sizes[tier] // PAGE_BYTES

    def physical_address(self, mapping: PageMapping) -> int:
        """Physical address of a mapped page's first byte."""
        if mapping.frame >= self.frame_count(mapping.tier):
            raise ValueError(
                f"frame {mapping.frame} exceeds {mapping.tier.value}")
        bases = {Tier.LOCAL: self.local_base,
                 Tier.REMOTE_LEFT: self.left_base,
                 Tier.REMOTE_RIGHT: self.right_base}
        return bases[mapping.tier] + mapping.frame * PAGE_BYTES


def default_layout(local_capacity: int = 16 * GB,
                   node_half_capacity: int = 640 * GB) -> AddressSpaceLayout:
    """Baseline layout: 16 GB HBM + two halves of 1.3 TB memory-nodes."""
    return AddressSpaceLayout(local_capacity, node_half_capacity,
                              node_half_capacity)
