"""Remote page allocation policies: LOCAL and BW_AWARE (Figure 10).

Given a ``malloc_remote`` of D bytes, the driver either places every
page in a single neighbouring memory-node (``LOCAL``, named after
libNUMA's local zone policy) or splits the request into two equal
page-aligned chunks and round-robins pages across the left and right
nodes (``BW_AWARE``), letting the device read both concurrently:

* ``Latency_LOCAL     = D / (N*B/2)``
* ``Latency_BW_AWARE  = (D/2) / (N*B/2)``  -- half of LOCAL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.enums import Enum
from repro.vmem.driver import PAGE_BYTES, AddressSpaceLayout, PageMapping, Tier


class PlacementPolicy(Enum):
    LOCAL = "LOCAL"
    BW_AWARE = "BW_AWARE"


class OutOfRemoteMemoryError(MemoryError):
    """A remote tier ran out of page frames."""


@dataclass
class RemoteAllocator:
    """Page-granular allocator over the two remote halves."""

    layout: AddressSpaceLayout
    policy: PlacementPolicy
    _next_frame: dict[Tier, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._next_frame = {Tier.REMOTE_LEFT: 0, Tier.REMOTE_RIGHT: 0}

    # -- Queries -------------------------------------------------------------

    def free_frames(self, tier: Tier) -> int:
        if tier is Tier.LOCAL:
            raise ValueError("allocator manages remote tiers only")
        return self.layout.frame_count(tier) - self._next_frame[tier]

    @property
    def free_bytes(self) -> int:
        return PAGE_BYTES * (self.free_frames(Tier.REMOTE_LEFT)
                             + self.free_frames(Tier.REMOTE_RIGHT))

    @property
    def fragmentation(self) -> float:
        """Fraction of free frames stranded by split placement.

        A LOCAL allocation wants one single-node extent, so the figure
        of merit is the larger tier's free run versus the largest such
        run the free total *could* form (``min(total_free, larger
        tier capacity)``); the shortfall, as a fraction of all free
        frames, is fragmentation.  Zero for a pristine or exhausted
        space, grows as allocations split the free frames evenly
        across the halves, and always stays within [0, 1].
        """
        left = self.free_frames(Tier.REMOTE_LEFT)
        right = self.free_frames(Tier.REMOTE_RIGHT)
        total = left + right
        if total == 0:
            return 0.0
        achievable = min(total,
                         max(self.layout.frame_count(Tier.REMOTE_LEFT),
                             self.layout.frame_count(Tier.REMOTE_RIGHT)))
        return (achievable - max(left, right)) / total

    # -- Allocation ------------------------------------------------------------

    def allocate(self, nbytes: int) -> list[PageMapping]:
        """Place an allocation; returns one mapping per virtual page."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        n_pages = math.ceil(nbytes / PAGE_BYTES)
        if self.policy is PlacementPolicy.LOCAL:
            return self._allocate_local(n_pages)
        return self._allocate_bw_aware(n_pages)

    def _take(self, tier: Tier, virtual_page: int) -> PageMapping:
        if self.free_frames(tier) == 0:
            raise OutOfRemoteMemoryError(
                f"{tier.value} exhausted "
                f"({self.layout.frame_count(tier)} frames)")
        frame = self._next_frame[tier]
        self._next_frame[tier] += 1
        return PageMapping(virtual_page, tier, frame)

    def _allocate_local(self, n_pages: int) -> list[PageMapping]:
        """Whole allocation in one node: the emptier side, then spill."""
        primary = (Tier.REMOTE_LEFT
                   if self.free_frames(Tier.REMOTE_LEFT)
                   >= self.free_frames(Tier.REMOTE_RIGHT)
                   else Tier.REMOTE_RIGHT)
        secondary = (Tier.REMOTE_RIGHT if primary is Tier.REMOTE_LEFT
                     else Tier.REMOTE_LEFT)
        mappings = []
        for page in range(n_pages):
            tier = primary if self.free_frames(primary) else secondary
            mappings.append(self._take(tier, page))
        return mappings

    def _allocate_bw_aware(self, n_pages: int) -> list[PageMapping]:
        """Round-robin pages across both halves (even split +-1 page)."""
        mappings = []
        for page in range(n_pages):
            preferred = (Tier.REMOTE_LEFT if page % 2 == 0
                         else Tier.REMOTE_RIGHT)
            fallback = (Tier.REMOTE_RIGHT if preferred is Tier.REMOTE_LEFT
                        else Tier.REMOTE_LEFT)
            tier = preferred if self.free_frames(preferred) else fallback
            mappings.append(self._take(tier, page))
        return mappings

    def release(self, mappings: list[PageMapping]) -> None:
        """Return frames to the allocator.

        The bump allocator only reclaims trailing frames (free in LIFO
        order -- how the training loop's per-iteration tensors behave);
        interior frees are tracked by tier watermarks.
        """
        by_tier: dict[Tier, list[int]] = {}
        for mapping in mappings:
            by_tier.setdefault(mapping.tier, []).append(mapping.frame)
        for tier, frames in by_tier.items():
            top = self._next_frame[tier]
            expected = set(range(top - len(frames), top))
            if set(frames) != expected:
                raise ValueError(
                    f"non-LIFO release on {tier.value}: {sorted(frames)}")
            self._next_frame[tier] = top - len(frames)


def transfer_latency(nbytes: int, policy: PlacementPolicy,
                     n_links: int, link_bw: float) -> float:
    """Figure 10's allocation-policy latency algebra.

    ``n_links`` is the device's total high-bandwidth link count N; each
    side (left/right memory-node) is reachable over N/2 links of
    ``link_bw`` bytes/sec each.
    """
    if nbytes < 0:
        raise ValueError("negative transfer size")
    if n_links < 2 or n_links % 2:
        raise ValueError("N must be an even link count >= 2")
    if link_bw <= 0:
        raise ValueError("link bandwidth must be positive")
    side_bw = (n_links / 2) * link_bw
    if policy is PlacementPolicy.LOCAL:
        return nbytes / side_bw
    return (nbytes / 2) / side_bw
