"""Cluster job specifications and seeded job-mix generation.

A :class:`JobSpec` is pure data -- what arrives at the cluster queue,
with no pricing attached.  The cost oracle (:mod:`repro.cluster.
oracle`) turns a spec into a :class:`~repro.cluster.oracle.JobProfile`
(gang width, service seconds, pool reservation) for a concrete design
point, so one job stream can be replayed identically across all six
designs -- the comparison the paper's pooling argument needs.

:func:`generate_jobs` materializes a named mix deterministically from
a seed: Poisson arrivals, workloads/widths/iteration counts drawn from
per-mix weight tables.  The same (mix, n_jobs, seed, rate) always
yields the same job stream, which is what makes cluster cells exactly
as cacheable as training cells in the campaign engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.enums import Enum

#: Names accepted by :func:`generate_jobs` (and the campaign axis).
JOB_MIX_NAMES = ("training", "transformer", "serving", "balanced")

#: Serving tenants keep their traces short so one tenant occupies the
#: node for tens of seconds, not the whole makespan.
SERVING_REQUESTS = 96

#: The defaults of a cluster cell: this many jobs, arriving at this
#: rate (jobs/s), on a fleet of this many devices.
#: ``simulate_cluster``, ``FleetSpec`` and the ``cluster``,
#: ``campaign`` and ``trace`` commands all read them here.
DEFAULT_JOBS = 24
DEFAULT_ARRIVAL_RATE = 0.02
DEFAULT_FLEET_DEVICES = 16

#: The scheduling policies :func:`repro.cluster.policies.select_next`
#: knows.
POLICY_NAMES = ("fifo", "sjf", "pool-fit", "gang")


class JobKind(Enum):
    """What a queued job runs once placed."""

    TRAINING = "training"    # data-parallel iterations, width 1..node
    PIPELINE = "pipeline"    # gang-scheduled pipeline iterations
    SERVING = "serving"      # a latency-critical inference tenant


@dataclass(frozen=True)
class JobSpec:
    """One job as submitted to the cluster queue (pure data)."""

    jid: int
    arrival: float
    kind: JobKind
    network: str
    batch: int
    #: Training iterations (TRAINING / PIPELINE); ignored by SERVING.
    iterations: int = 1
    #: Requested device count.  PIPELINE and SERVING jobs are gangs
    #: sized by the oracle to the design's node width; TRAINING jobs
    #: honour this width (work conserved: fewer devices run longer).
    width: int = 1
    #: SERVING tenants: offered load and trace seed.
    rate: float = 0.0
    trace_seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival time must be non-negative")
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.kind is JobKind.SERVING and self.rate <= 0:
            raise ValueError("serving tenants need a positive rate")


#: Per-mix draw tables: (kind, network, batch, iteration range, widths).
#: Batches are sized so pool residency spans 1 GB (AlexNet) to ~100 GB
#: per device (GPT2) -- the heterogeneity bin-packing policies exist
#: to exploit.
_TRAINING_DRAWS = (
    (JobKind.TRAINING, "AlexNet", 512, (30, 80), (1, 2, 4)),
    (JobKind.TRAINING, "GoogLeNet", 512, (20, 60), (2, 4)),
    (JobKind.TRAINING, "VGG-E", 512, (10, 40), (4, 8)),
    (JobKind.TRAINING, "ResNet", 512, (20, 60), (2, 4, 8)),
    (JobKind.TRAINING, "RNN-GRU", 512, (30, 80), (1, 2)),
)

_TRANSFORMER_DRAWS = (
    (JobKind.TRAINING, "GPT2", 256, (4, 12), (8,)),
    (JobKind.TRAINING, "BERT-Large", 128, (4, 12), (8,)),
    (JobKind.PIPELINE, "GPT2", 256, (8, 24), (8,)),
    (JobKind.PIPELINE, "BERT-Large", 128, (8, 24), (8,)),
)

_SERVING_DRAWS = (
    (JobKind.SERVING, "GPT2", 8, (1, 1), (8,)),
    (JobKind.SERVING, "BERT-Large", 8, (1, 1), (8,)),
)

_MIXES: dict[str, tuple] = {
    "training": _TRAINING_DRAWS,
    "transformer": _TRANSFORMER_DRAWS,
    "serving": _SERVING_DRAWS,
    "balanced": (_TRAINING_DRAWS + _TRANSFORMER_DRAWS
                 + _SERVING_DRAWS),
}

#: Serving tenants' offered-load ladder (req/s), drawn uniformly.
_SERVING_RATES = (100.0, 200.0, 400.0)


def generate_jobs(mix: str, n_jobs: int, seed: int = 0,
                  arrival_rate: float = DEFAULT_ARRIVAL_RATE,
                  node_width: int = 8) -> tuple[JobSpec, ...]:
    """A deterministic job stream for a named mix.

    ``arrival_rate`` is jobs/sec of a Poisson submission process;
    ``node_width`` caps every drawn width (gangs are sized to the
    design's node by the oracle, so the stream itself stays
    design-independent).
    """
    if mix not in _MIXES:
        raise KeyError(f"unknown job mix {mix!r}; "
                       f"known: {', '.join(JOB_MIX_NAMES)}")
    if n_jobs <= 0:
        raise ValueError("need at least one job")
    if arrival_rate <= 0:
        raise ValueError("arrival rate must be positive")
    if node_width < 1:
        raise ValueError("node width must be >= 1")
    draws = _MIXES[mix]
    rng = random.Random(seed)
    t = 0.0
    jobs = []
    for jid in range(n_jobs):
        t += rng.expovariate(arrival_rate)
        kind, network, batch, (lo, hi), widths = \
            draws[rng.randrange(len(draws))]
        width = min(rng.choice(widths), node_width)
        rate = 0.0
        if kind is JobKind.SERVING:
            rate = _SERVING_RATES[rng.randrange(len(_SERVING_RATES))]
        jobs.append(JobSpec(
            jid=jid, arrival=t, kind=kind, network=network,
            batch=batch, iterations=rng.randint(lo, hi), width=width,
            rate=rate, trace_seed=seed + jid))
    return tuple(jobs)
