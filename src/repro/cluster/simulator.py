"""The cluster's discrete-event loop: jobs x devices x shared pool.

State advances between three event kinds -- job arrival, job
completion, and preemption-patience expiry.  Between events every
running job burns its remaining service at a piecewise-constant rate:
``1`` normally, slower when the pool is oversubscribed and its
overflow spills to the slow tier (:func:`repro.cluster.pool.
spill_dilation`).  At each event the scheduler settles progress,
releases finished jobs, admits arrivals, then repeatedly asks the
policy (:func:`repro.cluster.policies.select_next`) for the next job
to place until it declines.

Preemption (``preempt_after``) evicts the newest preemptible running
jobs to unblock a starved queue entry: each victim checkpoints its
optimizer state into the pool and restores it when rescheduled, both
priced as pool traffic on the design's virtualization channel and
folded into the victim's remaining service.

Everything is deterministic for a fixed seed: arrivals come from the
seeded job generator, service times from the memoized cost oracle,
and the loop itself draws no randomness -- two runs produce
byte-identical :class:`~repro.core.metrics.ClusterStats` JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.cluster.jobs import (DEFAULT_ARRIVAL_RATE,
                                DEFAULT_FLEET_DEVICES, DEFAULT_JOBS,
                                JobSpec, generate_jobs)
from repro.cluster.oracle import CostOracle, JobProfile
from repro.cluster.policies import (QueueEntry, Release, fits,
                                    select_next)
from repro.cluster.pool import MemoryPool, spill_dilation, spill_penalty
from repro.core.metrics import (ClusterStats, ExecutionMode,
                                FaultStats, LatencyBreakdown,
                                SimulationResult, percentile)
from repro.core.system import SystemConfig
from repro.faults.lowering import (active_fault_model, degraded_config,
                                   healthy_config, record_fault_stats)
from repro.interconnect.link import PCIE_GEN3
from repro.training.parallel import ParallelStrategy
from repro.units import GB

#: Default shared-pool sizing when no explicit capacity is given.
DEFAULT_POOL_PER_DEVICE = 128 * GB
#: A job survives at most this many evictions, then becomes sticky.
MAX_PREEMPTIONS_PER_JOB = 2

_EPS = 1e-9


@dataclass
class _Pending:
    profile: JobProfile
    enqueued_at: float
    remaining: float
    preempted: int = 0
    #: Retry backoff after a fault-induced eviction: the policy layer
    #: skips this entry until the clock reaches it.
    eligible_at: float = 0.0


@dataclass
class _Running:
    profile: JobProfile
    remaining: float
    started: float
    preempted: int = 0
    dilation: float = 1.0


@dataclass
class _Ledger:
    """Integrals and counters folded into :class:`ClusterStats`."""

    busy_device_seconds: float = 0.0
    pool_util_seconds: float = 0.0
    pool_pressure_seconds: float = 0.0
    frag_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    checkpoint_bytes: int = 0
    preemptions: int = 0
    peak_reserved: int = 0
    #: Fault-injection accounting (all zero on healthy runs).
    fault_retries: int = 0
    fault_recovery_bytes: int = 0
    degraded_seconds: float = 0.0
    fault_events: int = 0
    finished: list = field(default_factory=list)  # (spec, first, end)
    first_dispatch: dict = field(default_factory=dict)
    #: Per-job lifecycle events, in occurrence order:
    #: ``(kind, jid, time)`` with kind one of ``arrive`` / ``start``
    #: / ``preempt`` / ``finish``.  Feeds the Chrome-trace exporter
    #: (:func:`repro.core.trace.cluster_chrome_trace`).
    events: list = field(default_factory=list)


def estimated_wall_seconds(remaining: float, profile: JobProfile,
                           pool: MemoryPool, penalty: float) -> float:
    """Wall-clock estimate of a pending job's runtime if started now.

    The base remaining service dilates by the spill overflow the job's
    own reservation would create on top of the pool's current load --
    so policies that reason about durations (SJF ordering, gang/EASY
    backfill windows) compare wall-clock against wall-clock, and a
    backfill candidate cannot sneak past the head gang's reservation
    by quoting its undilated runtime.
    """
    # The event loop never hands in a negative ``remaining`` (see
    # :func:`_burn`); the floor keeps this function's own contract, so
    # duration-aware policies (SJF ordering, backfill windows) never
    # see a negative estimate whoever calls it.
    remaining = max(0.0, remaining)
    projected = pool.reserved + profile.pool_bytes
    if projected <= 0:
        return remaining
    overflow = max(0, projected - pool.capacity) / projected
    return remaining * spill_dilation(profile, overflow, penalty)


def _burn(job: _Running, dt: float) -> None:
    """Run ``job`` for ``dt`` wall seconds at its current dilation.

    The loop never advances past a running job's completion, so the
    remaining service can undershoot zero only by float dust, which
    folds to zero.  An overshoot past ``_EPS`` of the job's service is
    an accounting slip and raises.
    """
    remaining = job.remaining - dt / job.dilation
    if remaining < 0.0:
        if -remaining > _EPS * job.profile.service:
            raise ValueError(
                f"job {job.profile.spec.jid} ran past its end: "
                f"remaining {remaining!r} s of a "
                f"{job.profile.service!r} s service")
        remaining = 0.0
    job.remaining = remaining


def _checkpoint_time(config: SystemConfig, nbytes: int) -> float:
    """One checkpoint (or restore) DMA of a job's optimizer state."""
    if nbytes == 0:
        return 0.0
    if config.virtualizes:
        return config.vmem.transfer_time(nbytes)
    return nbytes / PCIE_GEN3.uni_bw


class ClusterSimulator:
    """One fleet + pool + policy, ready to run a job stream."""

    def __init__(self, config: SystemConfig, *, policy: str = "fifo",
                 fleet_devices: int = DEFAULT_FLEET_DEVICES,
                 pool_capacity: int | None = None,
                 oversubscription: float = 1.0,
                 preempt_after: float | None = None) -> None:
        if fleet_devices < config.n_devices:
            raise ValueError(
                f"fleet of {fleet_devices} devices cannot host a "
                f"{config.n_devices}-device node gang")
        if preempt_after is not None and preempt_after <= 0:
            raise ValueError("preempt_after must be positive")
        if pool_capacity is None:
            pool_capacity = fleet_devices * DEFAULT_POOL_PER_DEVICE
        self.config = config
        self.policy = policy
        self.fleet_devices = fleet_devices
        self.pool = MemoryPool(pool_capacity,
                               oversubscription=oversubscription)
        self.preempt_after = preempt_after
        # Fault injection: price jobs under the *standing* degradation
        # (derated links, stragglers); timed flap windows and the pool
        # failure are applied on the event-loop timeline so the same
        # fault is never billed twice.
        self._fault = active_fault_model(config)
        base = (degraded_config(config, include_flaps=False)
                if self._fault is not None else config)
        self._base = base
        self.oracle = CostOracle(base)
        self._penalty = spill_penalty(base)

    # -- Pricing --------------------------------------------------------------

    def _admissible(self, profile: JobProfile) -> JobProfile:
        if profile.devices > self.fleet_devices:
            raise ValueError(
                f"job {profile.spec.jid} needs {profile.devices} "
                f"devices; fleet has {self.fleet_devices}")
        if profile.pool_bytes > self.pool.limit:
            raise ValueError(
                f"job {profile.spec.jid} reserves "
                f"{profile.pool_bytes} pool bytes; limit is "
                f"{self.pool.limit} (raise oversubscription or "
                f"capacity)")
        return profile

    # -- The event loop -------------------------------------------------------

    def run(self, jobs: Sequence[JobSpec]) -> tuple[_Ledger, float]:
        """Drive the job stream to completion; returns the ledger and
        the makespan."""
        if not jobs:
            raise ValueError("need at least one job")
        stream = sorted(jobs, key=lambda j: (j.arrival, j.jid))
        profiles = [self._admissible(self.oracle.profile(s))
                    for s in stream]

        t = 0.0
        index = 0
        pending: list[_Pending] = []
        running: list[_Running] = []
        free_devices = self.fleet_devices
        ledger = _Ledger()

        fault = self._fault
        flaps = fault is not None and fault.flaps
        loss_pending = fault is not None and fault.node_loss_fraction > 0
        loss_time = fault.node_loss_time if loss_pending else 0.0
        pool_lost = False

        def refresh_dilation() -> None:
            overflow = self.pool.overflow_fraction
            in_flap = flaps and fault.in_flap(t)
            for job in running:
                dil = spill_dilation(job.profile, overflow,
                                     self._penalty)
                if in_flap:
                    # Only the job's exposed migration share rides the
                    # flapping links; compute is unaffected.
                    dil *= 1.0 + (job.profile.vmem_share
                                  * job.profile.exposure
                                  * (1.0 / fault.link_degradation
                                     - 1.0))
                job.dilation = dil

        def advance(until: float) -> None:
            nonlocal t
            dt = until - t
            if dt < 0:
                raise AssertionError("time went backwards")
            if dt == 0:
                t = until
                return
            busy = sum(j.profile.devices for j in running)
            ledger.busy_device_seconds += busy * dt
            ledger.pool_util_seconds += self.pool.utilization * dt
            ledger.pool_pressure_seconds += self.pool.pressure * dt
            if pending:
                ledger.frag_seconds += \
                    (free_devices / self.fleet_devices) * dt
            if pool_lost or (flaps
                             and fault.in_flap(0.5 * (t + until))):
                ledger.degraded_seconds += dt
            for job in running:
                _burn(job, dt)
            t = until

        def start(entry: _Pending) -> None:
            nonlocal free_devices
            profile = entry.profile
            free_devices -= profile.devices
            self.pool.reserve(profile.pool_bytes)
            ledger.peak_reserved = max(ledger.peak_reserved,
                                       self.pool.reserved)
            jid = profile.spec.jid
            ledger.first_dispatch.setdefault(jid, t)
            ledger.events.append(("start", jid, t))
            running.append(_Running(profile=profile,
                                    remaining=entry.remaining,
                                    started=t,
                                    preempted=entry.preempted))
            refresh_dilation()

        def finish(job: _Running) -> None:
            nonlocal free_devices
            free_devices += job.profile.devices
            self.pool.release(job.profile.pool_bytes)
            spec = job.profile.spec
            ledger.finished.append(
                (spec, ledger.first_dispatch[spec.jid], t))
            ledger.events.append(("finish", spec.jid, t))
            refresh_dilation()

        def preempt(job: _Running, fault_evict: bool = False) -> None:
            nonlocal free_devices
            running.remove(job)
            free_devices += job.profile.devices
            self.pool.release(job.profile.pool_bytes)
            overhead = 2 * _checkpoint_time(self._base,
                                            job.profile.state_bytes)
            ledger.checkpoint_seconds += overhead
            ledger.checkpoint_bytes += 2 * job.profile.state_bytes
            ledger.preemptions += 1
            ledger.events.append(("preempt", job.profile.spec.jid, t))
            eligible_at = t
            if fault_evict:
                # Restore-and-retry with exponential backoff: the
                # checkpoint/restore traffic is billed through the
                # ordinary preemption ledger, and the retry waits out
                # the backoff before the policy may replace it.
                ledger.fault_retries += 1
                ledger.fault_recovery_bytes += \
                    2 * job.profile.state_bytes
                if fault.retry_backoff > 0:
                    eligible_at = t + fault.retry_backoff \
                        * (2.0 ** min(job.preempted, 6))
            pending.append(_Pending(profile=job.profile,
                                    enqueued_at=t,
                                    remaining=job.remaining + overhead,
                                    preempted=job.preempted + 1,
                                    eligible_at=eligible_at))
            refresh_dilation()

        def try_preempt_for(entry: _Pending) -> bool:
            """Evict newest preemptible jobs until ``entry`` fits."""
            victims = sorted(
                (j for j in running
                 if j.profile.preemptible
                 and j.preempted < MAX_PREEMPTIONS_PER_JOB),
                key=lambda j: (-j.started, -j.profile.spec.jid))
            devices = free_devices
            reserved = self.pool.reserved
            chosen = []
            need = entry.profile
            for victim in victims:
                if (devices >= need.devices
                        and reserved + need.pool_bytes
                        <= self.pool.limit):
                    break
                chosen.append(victim)
                devices += victim.profile.devices
                reserved -= victim.profile.pool_bytes
            if not (devices >= need.devices
                    and reserved + need.pool_bytes <= self.pool.limit):
                return False
            for victim in chosen:
                preempt(victim)
            return True

        def policy_pass() -> None:
            while True:
                # Entries backing off after a fault eviction are
                # invisible to the policy until their retry is due.
                eligible = [(i, p) for i, p in enumerate(pending)
                            if p.eligible_at <= t + _EPS]
                queue = [QueueEntry(p.profile,
                                    estimated_wall_seconds(
                                        p.remaining, p.profile,
                                        self.pool, self._penalty))
                         for _, p in eligible]
                releases = tuple(
                    Release(time=j.remaining * j.dilation,
                            devices=j.profile.devices,
                            pool_bytes=j.profile.pool_bytes)
                    for j in running)
                choice = select_next(self.policy, queue, free_devices,
                                     self.pool, releases)
                if choice is None:
                    return
                start(pending.pop(eligible[choice][0]))

        def schedule() -> None:
            """Alternate policy and preemption passes until stable."""
            while True:
                policy_pass()
                if self.preempt_after is None:
                    return
                progressed = False
                for entry in list(pending):
                    if entry.eligible_at > t + _EPS:
                        continue  # still backing off its retry
                    overdue = (t - entry.enqueued_at
                               >= self.preempt_after - _EPS)
                    if not overdue:
                        continue
                    if fits(QueueEntry(entry.profile, entry.remaining),
                            free_devices, self.pool):
                        continue  # next policy pass can place it
                    if try_preempt_for(entry):
                        pending.remove(entry)
                        start(entry)
                        progressed = True
                        break
                if not progressed:
                    return

        while index < len(stream) or pending or running:
            horizons = []
            if index < len(stream):
                horizons.append(stream[index].arrival)
            if running:
                horizons.append(t + min(j.remaining * j.dilation
                                        for j in running))
            if (self.preempt_after is not None and pending
                    and running):
                due = min(p.enqueued_at + self.preempt_after
                          for p in pending)
                if due > t:
                    horizons.append(due)
            if flaps:
                # Flap boundaries are events: dilations and the
                # degraded-time integral are piecewise-constant only
                # between them.
                horizons.append(fault.next_flap_boundary(t))
            if loss_pending:
                horizons.append(max(t, loss_time))
            backoffs = [p.eligible_at for p in pending
                        if p.eligible_at > t + _EPS]
            if backoffs:
                horizons.append(min(backoffs))
            if not horizons:
                raise AssertionError(
                    "deadlock: queued jobs but nothing running or "
                    "arriving")
            advance(max(t, min(horizons)))
            refresh_dilation()

            for job in [j for j in running
                        if j.remaining <= _EPS * (1.0 + j.profile.service)]:
                running.remove(job)
                finish(job)
            while (index < len(stream)
                   and stream[index].arrival <= t + _EPS):
                spec = stream[index]
                ledger.events.append(("arrive", spec.jid, spec.arrival))
                pending.append(_Pending(profile=profiles[index],
                                        enqueued_at=spec.arrival,
                                        remaining=profiles[index].service))
                index += 1
            if loss_pending and t >= loss_time - _EPS:
                # The pool node dies: capacity shrinks (floored so the
                # largest single job can still run -- the fleet would
                # otherwise wedge forever), and the newest jobs are
                # force-evicted until the survivors' reservations fit.
                loss_pending = False
                pool_lost = True
                floor_bytes = max(p.pool_bytes for p in profiles)
                floor_cap = math.ceil(
                    floor_bytes / self.pool.oversubscription)
                self.pool.capacity = max(
                    int(self.pool.capacity
                        * (1.0 - fault.node_loss_fraction)),
                    floor_cap)
                ledger.events.append(("fault", -1, t))
                ledger.fault_events += 1
                while self.pool.reserved > self.pool.limit and running:
                    victim = max(running,
                                 key=lambda j: (j.started,
                                                j.profile.spec.jid))
                    preempt(victim, fault_evict=True)
                refresh_dilation()
            schedule()

        return ledger, t


def fold_stats(ledger: _Ledger, makespan: float, *, policy: str,
               job_mix: str, fleet_devices: int,
               pool: MemoryPool) -> ClusterStats:
    """Fold a finished run's ledger into :class:`ClusterStats`.

    The utilization and fragmentation fractions are not clamped:
    :class:`ClusterStats` rejects one above 1, so an accounting slip
    in the ledger raises instead of hiding under a fold.
    """
    finished = ledger.finished
    if not finished:
        raise ValueError("no finished jobs")
    jcts = sorted(end - spec.arrival for spec, _, end in finished)
    n = len(jcts)
    delays = [first - spec.arrival for spec, first, _ in finished]
    return ClusterStats(
        policy=policy,
        job_mix=job_mix,
        n_jobs=n,
        n_devices=fleet_devices,
        pool_capacity=pool.capacity,
        oversubscription=pool.oversubscription,
        makespan=makespan,
        throughput=n / makespan,
        jct_mean=sum(jcts) / n,
        jct_p50=percentile(jcts, 50),
        jct_p95=percentile(jcts, 95),
        queue_delay_mean=sum(delays) / n,
        device_utilization=(ledger.busy_device_seconds
                            / (fleet_devices * makespan)),
        pool_utilization=ledger.pool_util_seconds / makespan,
        pool_pressure=ledger.pool_pressure_seconds / makespan,
        fragmentation=ledger.frag_seconds / makespan,
        preemptions=ledger.preemptions,
        checkpoint_bytes=ledger.checkpoint_bytes,
    )


def _record_cluster(stats: ClusterStats, ledger: _Ledger) -> None:
    """Telemetry probe: per-policy event-loop counters, folded once
    after the run from the ledger (the loop itself is untouched)."""
    from repro.telemetry.registry import metrics_registry
    registry = metrics_registry()
    if registry is None:
        return
    labels = {"policy": stats.policy}
    registry.counter(
        "repro_cluster_jobs_total",
        "jobs completed by the cluster event loop",
        **labels).inc(stats.n_jobs)
    registry.counter(
        "repro_cluster_preemptions_total",
        "running jobs evicted to unblock a starved queue entry",
        **labels).inc(stats.preemptions)
    registry.counter(
        "repro_cluster_events_total",
        "job lifecycle events recorded",
        **labels).inc(len(ledger.events))


def simulate_cluster(config: SystemConfig, *, policy: str = "fifo",
                     job_mix: str = "balanced",
                     n_jobs: int = DEFAULT_JOBS, seed: int = 0,
                     arrival_rate: float = DEFAULT_ARRIVAL_RATE,
                     fleet_devices: int = DEFAULT_FLEET_DEVICES,
                     pool_capacity: int | None = None,
                     oversubscription: float = 1.0,
                     preempt_after: float | None = None,
                     jobs: Sequence[JobSpec] | None = None) \
        -> SimulationResult:
    """Run one complete cluster simulation on a design point.

    Returns a :class:`SimulationResult` in ``ExecutionMode.CLUSTER``
    whose ``cluster`` field carries the fleet statistics -- so cluster
    cells cache, replay, and render through the campaign machinery
    unchanged.  ``iteration_time`` holds the makespan; the breakdown's
    ``compute`` aggregates busy device-seconds and ``vmem`` the
    preemption checkpoint/restore traffic time.
    """
    return cluster_lifecycle(
        config, policy=policy, job_mix=job_mix, n_jobs=n_jobs,
        seed=seed, arrival_rate=arrival_rate,
        fleet_devices=fleet_devices, pool_capacity=pool_capacity,
        oversubscription=oversubscription, preempt_after=preempt_after,
        jobs=jobs)[0]


def cluster_lifecycle(config: SystemConfig, *, policy: str,
                      job_mix: str, n_jobs: int, seed: int,
                      arrival_rate: float, fleet_devices: int,
                      oversubscription: float,
                      pool_capacity: int | None = None,
                      preempt_after: float | None = None,
                      jobs: Sequence[JobSpec] | None = None) \
        -> tuple[SimulationResult, list]:
    """The one cluster driver: :func:`simulate_cluster`'s result and
    the per-job lifecycle events of the run it was read from (trace
    export, :func:`repro.core.trace.cluster_chrome_trace`).

    The knobs :func:`simulate_cluster` defaults are required here; a
    lowered :class:`~repro.scenarios.dsl.FleetSpec`
    (``CampaignPoint.cluster``) carries every one.
    """
    if jobs is None:
        jobs = generate_jobs(job_mix, n_jobs, seed=seed,
                             arrival_rate=arrival_rate,
                             node_width=config.n_devices)
        mix_label = job_mix
    else:
        jobs = tuple(jobs)
        mix_label = f"explicit[{len(jobs)}]"
    sim = ClusterSimulator(config, policy=policy,
                           fleet_devices=fleet_devices,
                           pool_capacity=pool_capacity,
                           oversubscription=oversubscription,
                           preempt_after=preempt_after)
    from repro.telemetry.spans import span
    with span("cluster:run", policy=policy, jobs=len(jobs)):
        ledger, makespan = sim.run(jobs)
    stats = fold_stats(ledger, makespan, policy=policy,
                       job_mix=mix_label,
                       fleet_devices=sim.fleet_devices, pool=sim.pool)
    _record_cluster(stats, ledger)

    faults = None
    if sim._fault is not None:
        fault = sim._fault
        # The healthy twin replays the identical job stream with the
        # fault model stripped; its makespan anchors slowdown and
        # availability (delivered over nominal fleet capacity).
        healthy = ClusterSimulator(
            healthy_config(config), policy=policy,
            fleet_devices=fleet_devices, pool_capacity=pool_capacity,
            oversubscription=oversubscription,
            preempt_after=preempt_after)
        with span("faults", model=fault.name, mode="cluster"):
            _, healthy_makespan = healthy.run(jobs)
        injected = fault.flap_count_until(makespan) \
            + ledger.fault_events
        if fault.compute_multiplier > 1.0:
            injected += fault.straggler_devices
        standing = (fault.standing_multiplier < 1.0
                    or fault.compute_multiplier > 1.0)
        faults = FaultStats(
            model=fault.name,
            injected_events=injected,
            degraded_seconds=(makespan if standing
                              else min(makespan,
                                       ledger.degraded_seconds)),
            slowdown=makespan / healthy_makespan,
            retries=ledger.fault_retries,
            shed_requests=0,
            timed_out_requests=0,
            recovery_bytes=ledger.fault_recovery_bytes,
            availability=min(1.0, healthy_makespan / makespan),
        )
        record_fault_stats(faults, "cluster")

    result = SimulationResult(
        system=config.name,
        network=f"mix:{mix_label}",
        batch=stats.n_jobs,
        strategy=ParallelStrategy.DATA,
        n_devices=sim.fleet_devices,
        iteration_time=makespan,
        breakdown=LatencyBreakdown(
            compute=ledger.busy_device_seconds,
            sync=0.0,
            vmem=ledger.checkpoint_seconds),
        offload_bytes_per_device=(ledger.peak_reserved
                                  // sim.fleet_devices),
        sync_bytes=0,
        host_traffic_bytes_per_device=0,
        fits_in_device_memory=ledger.peak_reserved == 0,
        mode=ExecutionMode.CLUSTER,
        cluster=stats,
        faults=faults,
    )
    return result, ledger.events
