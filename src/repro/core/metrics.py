"""Result records of a simulated training iteration.

Every record round-trips losslessly through plain dicts (``to_dict`` /
``from_dict``, derived by :func:`repro.records.record`) so the campaign
layer can persist them as JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from repro.enums import Enum
from repro.records import record
from repro.training.parallel import ParallelStrategy


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (exact order
    statistic; survives JSON round trips bit-for-bit).  Shared by the
    serving and cluster statistics layers."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class MetricPathError(ValueError):
    """A dotted metric path does not resolve on a result."""


def resolve_metric(result: "SimulationResult", path: str) -> float:
    """Resolve a dotted attribute path to one numeric metric.

    ``"iteration_time"``, ``"breakdown.vmem_share"``,
    ``"cluster.jct_p95"``, ``"prefetch.stall_seconds"`` -- any chain of
    dataclass fields and properties ending in a number.  Booleans fold
    to 0.0/1.0 so capacity predicates (``fits_in_device_memory``) bind
    like any other metric.  Raises :class:`MetricPathError` when a
    segment is missing, or lands on an optional payload that this
    result did not produce (e.g. ``cluster.*`` on a training result).
    """
    value: Any = result
    walked: list[str] = []
    for segment in path.split("."):
        if value is None:
            raise MetricPathError(
                f"metric {path!r}: {'.'.join(walked)!r} is None on "
                f"this result (mode={result.mode.value}); the claim "
                f"binds a payload this scenario does not produce")
        try:
            value = getattr(value, segment)
        except AttributeError:
            raise MetricPathError(
                f"metric {path!r}: {type(value).__name__} has no "
                f"attribute {segment!r}") from None
        walked.append(segment)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    raise MetricPathError(
        f"metric {path!r} resolved to {type(value).__name__}, "
        f"not a number")


class ExecutionMode(Enum):
    """What one ``simulate()`` call models.

    ``TRAINING`` is the paper's iteration (forward + backward +
    migration + synchronization).  ``INFERENCE`` is a forward-only
    batch with multi-tenant weight streaming from the backing store
    (:func:`repro.core.schedule.plan_inference`).  ``SERVING`` marks a
    result produced by the request-level serving simulation
    (:mod:`repro.serving`), whose payload lives in
    :class:`ServingStats`.  ``CLUSTER`` marks a result produced by the
    multi-job cluster scheduler (:mod:`repro.cluster`), whose payload
    lives in :class:`ClusterStats`.
    """

    TRAINING = "training"
    INFERENCE = "inference"
    SERVING = "serving"
    CLUSTER = "cluster"


@record
@dataclass(frozen=True)
class LatencyBreakdown:
    """The three stacked latencies of the paper's Figure 11.

    These are *raw* per-engine totals; they do not sum to the iteration
    time because the framework overlaps computation with
    synchronization and memory virtualization (the figure's caption).
    """

    compute: float
    sync: float
    vmem: float

    def __post_init__(self) -> None:
        if min(self.compute, self.sync, self.vmem) < 0:
            raise ValueError("latency components must be non-negative")

    @property
    def total(self) -> float:
        return self.compute + self.sync + self.vmem

    @property
    def vmem_share(self) -> float:
        """Virtualization share of the raw engine totals, in [0, 1].

        Above 0.5 the run is vmem-bound: migration alone outweighs
        compute and synchronization combined.
        """
        total = self.total
        return self.vmem / total if total > 0 else 0.0

    def normalized_to(self, reference_total: float) -> "LatencyBreakdown":
        if reference_total <= 0:
            raise ValueError("reference total must be positive")
        return LatencyBreakdown(self.compute / reference_total,
                                self.sync / reference_total,
                                self.vmem / reference_total)


@record
@dataclass(frozen=True)
class PipelineStats:
    """Per-stage accounting of one pipeline-parallel iteration.

    ``stage_bubble`` is each stage's compute-engine idle time over the
    iteration makespan -- fill/drain waits plus any stall the memory
    system injects (exposed activation prefetches).  All parallel
    tuples are indexed by stage.
    """

    schedule: str
    n_stages: int
    n_microbatches: int
    microbatch: int
    #: Data-parallel replicas of the whole pipeline (1 = none).
    replicas: int
    stage_compute: tuple[float, ...]
    stage_bubble: tuple[float, ...]
    #: Bytes each stage offloads to the backing store per iteration.
    stage_offload_bytes: tuple[int, ...]
    #: Peak microbatches in flight per stage (the activation stash
    #: depth: M under fill-drain, at most P-s under 1F1B).
    stage_max_in_flight: tuple[int, ...]
    #: Deferred weight-grad (W) seconds per stage over the iteration;
    #: empty on schedules that keep the backward undifferentiated
    #: (then W time is folded into ``stage_compute`` backwards).  Left
    #: out of the JSON image while empty, so results of those
    #: schedules keep the bytes they had before B/W splitting existed.
    stage_wgrad: tuple[float, ...] = field(
        default=(), metadata={"omit_empty": True})

    def __post_init__(self) -> None:
        counts = {len(self.stage_compute), len(self.stage_bubble),
                  len(self.stage_offload_bytes),
                  len(self.stage_max_in_flight)}
        if self.stage_wgrad:
            counts.add(len(self.stage_wgrad))
        if counts != {self.n_stages}:
            raise ValueError("per-stage tuples must match n_stages")
        if min(self.stage_bubble) < -1e-9:
            raise ValueError("negative bubble time")

    @property
    def bubble_time(self) -> float:
        """Total compute-idle time summed over stages."""
        return sum(self.stage_bubble)

    @property
    def bubble_fraction(self) -> float:
        """Idle share of all stage-compute timelines.

        Each stage contributes ``makespan`` of wall-clock, so the
        denominator ``sum(bubble) + sum(compute)`` equals
        ``n_stages * makespan`` without storing the makespan.
        """
        total = self.bubble_time + sum(self.stage_compute)
        return self.bubble_time / total if total > 0 else 0.0

    @property
    def wgrad_time(self) -> float:
        """Total deferred weight-grad seconds summed over stages."""
        return sum(self.stage_wgrad)

    @property
    def wgrad_fill_fraction(self) -> float:
        """Deferred W work relative to the idle it competes with.

        ``wgrad / (wgrad + bubble)``: 0 on undifferentiated schedules,
        approaching 1 as deferred weight-grad work crowds out the
        remaining fill/drain idle.
        """
        total = self.wgrad_time + self.bubble_time
        return self.wgrad_time / total if total > 0 else 0.0


@record
@dataclass(frozen=True)
class PrefetchStats:
    """What the vmem prefetch/eviction policy did to one schedule.

    Produced by :func:`repro.vmem.prefetch.collect_prefetch_stats` from
    the scheduled timeline.  ``late``/``jit``/``early`` form the
    timeliness histogram over the real (consumer-feeding) prefetches:
    a fetch is *late* when its consumer had to wait for it, *jit* when
    it finished within one of its own transfer times of the consumer
    unblocking, and *early* otherwise.  ``wasted_bytes`` counts
    speculative traffic nothing consumed (mispredictions plus the first
    trip of every evicted tensor); ``contended_seconds`` is the
    per-channel pairwise overlap of non-empty migration-DMA and
    collective intervals, which share the device's links.  All counts
    are exact integers and every float round-trips losslessly through
    JSON.
    """

    policy: str
    n_prefetches: int
    #: All bytes moved device-bound on the prefetch engine, waste
    #: included.
    prefetch_bytes: int
    wasted_bytes: int
    evictions: int
    #: Seconds compute spent blocked on prefetch DMAs.
    stall_seconds: float
    late: int
    jit: int
    early: int
    #: Fraction of prefetches that did not stall their consumer.
    hit_rate: float
    contended_seconds: float

    def __post_init__(self) -> None:
        if min(self.n_prefetches, self.prefetch_bytes,
               self.wasted_bytes, self.evictions, self.late, self.jit,
               self.early) < 0:
            raise ValueError("prefetch counts must be non-negative")
        if self.late + self.jit + self.early != self.n_prefetches:
            raise ValueError("timeliness histogram must cover every "
                             "prefetch")
        if min(self.stall_seconds, self.contended_seconds) < 0:
            raise ValueError("prefetch timings must be non-negative")
        if not 0.0 <= self.hit_rate <= 1.0:
            raise ValueError("hit rate must lie in [0, 1]")

    @property
    def timeliness(self) -> dict[str, int]:
        """The histogram as a plain mapping (rendering convenience)."""
        return {"late": self.late, "jit": self.jit, "early": self.early}


@record
@dataclass(frozen=True)
class FaultStats:
    """What a fault model injected into one run, and what it cost.

    Produced only when a non-null :class:`repro.faults.model.FaultModel`
    is active; healthy results carry ``faults=None`` so disabled fault
    injection is byte-invisible.  ``slowdown`` compares the faulted run
    against its healthy twin (same design, same workload, fault model
    stripped); ``availability`` is the fraction of nominal capacity the
    degraded system delivered (1.0 = unharmed).
    """

    model: str
    #: Flap onsets within the run horizon plus standing faults
    #: (each straggler once, the pool-node loss once).
    injected_events: int
    #: Wall-clock seconds the run spent under active degradation.
    degraded_seconds: float
    #: Faulted time over healthy-twin time (makespan for cluster runs,
    #: representative batch latency for serving).
    slowdown: float
    #: Fault-induced evictions retried with backoff (cluster mode).
    retries: int
    #: Requests dropped by SLO-aware load shedding (serving mode).
    shed_requests: int
    #: Completions past the request timeout (serving mode).
    timed_out_requests: int
    #: Checkpoint + restore bytes billed to fault recovery.
    recovery_bytes: int
    #: Delivered over nominal capacity, in [0, 1].
    availability: float

    def __post_init__(self) -> None:
        if not self.model or self.model == "none":
            raise ValueError("fault stats need a non-null model name")
        if min(self.injected_events, self.retries, self.shed_requests,
               self.timed_out_requests, self.recovery_bytes) < 0:
            raise ValueError("fault counts must be non-negative")
        if self.degraded_seconds < 0:
            raise ValueError("degraded_seconds must be non-negative")
        if self.slowdown <= 0:
            raise ValueError("slowdown must be positive")
        if not 0.0 <= self.availability <= 1.0 + 1e-9:
            raise ValueError("availability must lie in [0, 1]")


@record
@dataclass(frozen=True)
class ServingStats:
    """Request-level outcome of one inference-serving simulation.

    Latencies are end-to-end (arrival to completion, queueing included)
    in seconds; percentiles use the nearest-rank method so they are
    exact order statistics of the completed-request population and
    round-trip losslessly through JSON.  ``goodput`` counts only
    requests completed within the SLO.
    """

    arrival: str          # arrival-process label, e.g. "poisson(r=200)"
    batcher: str          # "dynamic" | "continuous"
    max_batch: int
    max_wait: float       # batching deadline (seconds)
    slo: float            # latency objective (seconds)
    n_requests: int
    n_servers: int
    #: Wall-clock span of the simulation (first arrival to last
    #: completion).
    duration: float
    #: Nominal offered load of the arrival process (requests/sec).
    offered_rate: float
    #: Completed requests per second over ``duration``.
    throughput: float
    #: SLO-satisfying completions per second over ``duration``.
    goodput: float
    #: Fraction of requests completed within the SLO.
    slo_attainment: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    queue_delay_mean: float
    service_mean: float
    mean_batch_size: float
    #: Aggregate server busy time over ``n_servers * duration``.
    utilization: float

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ValueError("request count must be non-negative")
        if self.n_servers <= 0:
            raise ValueError("need at least one server")
        if self.n_requests == 0:
            # A trace that completed nothing (zero offered load, or
            # every request shed under fault injection) folds to a
            # well-defined all-zero record.
            if self.duration != 0.0 or self.throughput != 0.0 \
                    or self.latency_max != 0.0:
                raise ValueError("empty-trace stats must be zeroed")
            return
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.slo_attainment <= 1.0:
            raise ValueError("slo_attainment must be a fraction")
        if not (self.latency_p50 <= self.latency_p95
                <= self.latency_p99 <= self.latency_max):
            raise ValueError("latency percentiles must be ordered")
        if self.utilization < 0.0 or self.utilization > 1.0 + 1e-9:
            raise ValueError("utilization must lie in [0, 1]")

    @property
    def tail_amplification(self) -> float:
        """p99 over p50 -- how much queueing stretches the tail."""
        return (self.latency_p99 / self.latency_p50
                if self.latency_p50 > 0 else 0.0)


@record
@dataclass(frozen=True)
class ClusterStats:
    """Fleet-level outcome of one multi-job cluster simulation.

    Job completion times (JCT) are end-to-end (submission to finish,
    queueing and preemption overheads included) in seconds, reported
    as exact nearest-rank order statistics so they round-trip
    losslessly through JSON.  ``pool_utilization`` is the time-average
    of ``min(reserved, capacity) / capacity`` over the makespan;
    ``fragmentation`` is the time-averaged fraction of fleet devices
    idle while at least one job waited (capacity stranded by gang and
    pool constraints), bounded in [0, 1].
    """

    policy: str
    job_mix: str
    n_jobs: int
    n_devices: int        # fleet width (devices)
    pool_capacity: int    # shared pool bytes
    oversubscription: float
    makespan: float
    #: Completed jobs per second over the makespan.
    throughput: float
    jct_mean: float
    jct_p50: float
    jct_p95: float
    queue_delay_mean: float
    #: Time-averaged fraction of fleet devices busy.
    device_utilization: float
    pool_utilization: float
    #: Time-averaged peak-relative pool pressure: ``reserved /
    #: capacity`` without the cap, so oversubscribed intervals push it
    #: above 1.
    pool_pressure: float
    fragmentation: float
    preemptions: int
    #: Checkpoint + restore bytes moved through the pool by preemption.
    checkpoint_bytes: int

    def __post_init__(self) -> None:
        if self.n_jobs <= 0:
            raise ValueError("stats need at least one job")
        if self.n_devices <= 0:
            raise ValueError("need at least one device")
        if self.makespan <= 0:
            raise ValueError("makespan must be positive")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        if not self.jct_p50 <= self.jct_p95:
            raise ValueError("JCT percentiles must be ordered")
        for name in ("device_utilization", "pool_utilization",
                     "fragmentation"):
            value = getattr(self, name)
            if value < 0.0 or value > 1.0 + 1e-9:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.preemptions < 0 or self.checkpoint_bytes < 0:
            raise ValueError("preemption accounting must be >= 0")

    @property
    def queueing_share(self) -> float:
        """Mean queueing delay over mean JCT -- how much of a job's
        lifetime is spent waiting rather than running."""
        return (self.queue_delay_mean / self.jct_mean
                if self.jct_mean > 0 else 0.0)


@record
@dataclass(frozen=True)
class SimulationResult:
    """One (design point, network, batch, strategy) simulation.

    ``iteration_time`` and every :class:`LatencyBreakdown` component
    are seconds; ``offload_bytes_per_device``, ``sync_bytes``, and
    ``host_traffic_bytes_per_device`` are bytes per iteration.
    """

    system: str
    network: str
    batch: int
    strategy: ParallelStrategy
    n_devices: int
    iteration_time: float
    breakdown: LatencyBreakdown
    offload_bytes_per_device: int
    sync_bytes: int
    #: Virtualization bytes through *host* DRAM per device (0 when the
    #: backing store is a memory-node or migration is off).
    host_traffic_bytes_per_device: int
    #: Whether the whole training footprint fits in device memory
    #: without virtualization.
    fits_in_device_memory: bool
    #: Per-stage pipeline accounting (``ParallelStrategy.PIPELINE``
    #: only; ``None`` for data/model-parallel runs).
    pipeline: PipelineStats | None = None
    #: What this result models; training iterations by default.
    mode: ExecutionMode = ExecutionMode.TRAINING
    #: Request-level serving statistics (``ExecutionMode.SERVING``
    #: only; ``None`` otherwise).
    serving: ServingStats | None = None
    #: Fleet-level scheduler statistics (``ExecutionMode.CLUSTER``
    #: only; ``None`` otherwise).
    cluster: ClusterStats | None = None
    #: Prefetch-policy accounting of the scheduled timeline: populated
    #: for training, inference, and pipeline results, and for serving
    #: results (from the representative ``max_batch`` forward
    #: simulation).  ``None`` only for the fleet-level cluster
    #: simulation, whose payload aggregates many jobs' timelines.
    prefetch: PrefetchStats | None = None
    #: Fault-injection accounting (:mod:`repro.faults`); ``None``
    #: whenever the fault model is ``"none"`` or inert, so healthy
    #: results are byte-identical with the fault engine absent.
    faults: FaultStats | None = None

    def __post_init__(self) -> None:
        if self.iteration_time <= 0:
            raise ValueError("iteration time must be positive")

    @property
    def throughput(self) -> float:
        """Training throughput in samples/sec across the node."""
        return self.batch / self.iteration_time

    @property
    def round_trip_bytes_per_device(self) -> int:
        return 2 * self.offload_bytes_per_device

    def speedup_over(self, other: "SimulationResult") -> float:
        if (self.network, self.batch, self.strategy) != \
                (other.network, other.batch, other.strategy):
            raise ValueError("speedup requires matching workloads")
        return other.iteration_time / self.iteration_time

    def performance_vs(self, oracle: "SimulationResult") -> float:
        """Throughput normalized to the oracle (Figure 13's y-axis)."""
        if (self.network, self.batch, self.strategy) != \
                (oracle.network, oracle.batch, oracle.strategy):
            raise ValueError("normalization requires matching workloads")
        return oracle.iteration_time / self.iteration_time
