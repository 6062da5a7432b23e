"""Pluggable placement/scheduling policies for the cluster queue.

A policy is a pure selection rule: given the pending queue (in
submission order), the free device count, and the pool's admission
state, pick the index of the next job to start -- or ``None`` to wait.
The simulator calls it repeatedly until it declines, so policies never
mutate state and stay trivially deterministic.

Four disciplines:

* ``fifo`` -- strict submission order; a blocked head blocks the queue
  (the honest baseline every scheduling paper compares against);
* ``sjf`` -- shortest service first among the jobs that fit, using the
  cost oracle's ``simulate()``-priced service time;
* ``pool-fit`` -- memory-pool-aware best-fit-decreasing: of the jobs
  that fit, start the one with the largest pool reservation, packing
  big working sets early so small jobs backfill the remainder;
* ``gang`` -- FIFO with EASY backfill for multi-device gangs: the head
  job reserves its earliest feasible start (projected from running
  jobs' release times), and later jobs may jump ahead only if they fit
  now *and* finish before that reservation, so wide pipeline gangs are
  never starved by a stream of narrow jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.cluster.jobs import POLICY_NAMES
from repro.cluster.oracle import JobProfile
from repro.cluster.pool import MemoryPool


@dataclass(frozen=True)
class QueueEntry:
    """One pending job as the policy sees it."""

    profile: JobProfile
    #: Estimated wall-clock seconds to completion if started now (the
    #: simulator folds restore costs and spill dilation in, so SJF
    #: ordering and gang backfill windows compare wall-clock against
    #: wall-clock).
    remaining: float


@dataclass(frozen=True)
class Release:
    """A projected resource release (one running job ending),
    ``time`` seconds from now."""

    time: float
    devices: int
    pool_bytes: int


def fits(entry: QueueEntry, free_devices: int,
         pool: MemoryPool) -> bool:
    """Whether a pending job can start right now."""
    return (entry.profile.devices <= free_devices
            and pool.fits(entry.profile.pool_bytes))


def earliest_start(entry: QueueEntry, free_devices: int,
                   pool: MemoryPool,
                   releases: Sequence[Release]) -> float | None:
    """Projected earliest time ``entry`` fits, or ``None`` if not even
    draining every running job would make room."""
    devices = free_devices
    reserved = pool.reserved
    limit = pool.limit
    need = entry.profile
    if devices >= need.devices and reserved + need.pool_bytes <= limit:
        return 0.0
    for release in sorted(releases, key=lambda r: r.time):
        devices += release.devices
        reserved -= release.pool_bytes
        if (devices >= need.devices
                and reserved + need.pool_bytes <= limit):
            return release.time
    return None


def select_next(policy: str, queue: Sequence[QueueEntry],
                free_devices: int, pool: MemoryPool,
                releases: Sequence[Release] = ()) -> int | None:
    """The queue index the policy starts next, or ``None`` to wait."""
    if not queue:
        return None
    if policy == "fifo":
        return 0 if fits(queue[0], free_devices, pool) else None
    if policy == "sjf":
        fitting = [i for i, e in enumerate(queue)
                   if fits(e, free_devices, pool)]
        if not fitting:
            return None
        return min(fitting, key=lambda i: (queue[i].remaining, i))
    if policy == "pool-fit":
        fitting = [i for i, e in enumerate(queue)
                   if fits(e, free_devices, pool)]
        if not fitting:
            return None
        return min(fitting,
                   key=lambda i: (-queue[i].profile.pool_bytes, i))
    if policy == "gang":
        if fits(queue[0], free_devices, pool):
            return 0
        horizon = earliest_start(queue[0], free_devices, pool, releases)
        for index in range(1, len(queue)):
            entry = queue[index]
            if not fits(entry, free_devices, pool):
                continue
            if horizon is None or entry.remaining <= horizon:
                return index
        return None
    raise KeyError(f"unknown scheduling policy {policy!r}; "
                   f"known: {', '.join(POLICY_NAMES)}")
