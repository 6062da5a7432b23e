"""Cluster comparison: scheduling policies x designs, one shared pool.

The paper's evaluation runs one job on one design point at a time;
the memory-centric computing literature it seeded (PAPERS.md) argues
the pooling win shows up at the *system* level -- many tenants
contending for one disaggregated capacity.  This study replays the
six-design comparison as a cluster problem: every design schedules the
same seeded stream of heterogeneous jobs (training runs, pipeline
gangs, serving tenants) on the same fleet against the same pool
capacity, under each scheduling policy.

The headline extends Figure 13 to the fleet: because the
memory-centric designs complete each job's migration traffic several
times faster, their queues drain before work piles up -- the
device-centric baseline's JCT p95 sits multiples above every MC
design at equal pool capacity, and smarter scheduling (SJF, pool-aware
packing, gang backfill) only narrows the gap it cannot close.

The cells are declared as scenarios and run through the scenario
runner (process fan-out + disk cache); the study is deterministic for
a fixed seed: two runs produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.campaign.cache import ResultCache
from repro.core.design_points import DESIGN_ORDER
from repro.core.metrics import ClusterStats
from repro.experiments.report import format_table, percent
from repro.scenarios.dsl import DesignSpec, FleetSpec, Scenario
from repro.scenarios.runner import run_study
from repro.units import TB

DEFAULT_POLICIES = ("fifo", "sjf", "pool-fit", "gang")
DEFAULT_JOB_MIX = "balanced"
DEFAULT_JOBS = 20
DEFAULT_SEED = 0
#: Submission rate high enough that queues actually form.
DEFAULT_ARRIVAL_RATE = 0.05
#: The equal pool capacity every design gets -- large enough to admit
#: the widest gang (a GPT2 training job reserves ~780 GB), small
#: enough that two cannot run side by side.
DEFAULT_POOL_CAPACITY = 1 * TB

#: The memory-centric designs and the device-centric baseline they
#: must beat (HC-DLA's hypothetical 300 GB/s socket makes it a
#: separate, stronger reference point).
MC_DESIGNS = ("MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)")
DC_BASELINE = "DC-DLA"


@dataclass(frozen=True)
class ClusterComparison:
    """All (design, policy) cluster cells of the study."""

    job_mix: str
    n_jobs: int
    pool_capacity: int
    policies: tuple[str, ...]
    #: (design, policy) -> fleet statistics.
    stats: dict[tuple[str, str], ClusterStats]

    def at(self, design: str, policy: str) -> ClusterStats:
        return self.stats[(design, policy)]

    def jct_p95_speedup(self, design: str, policy: str) -> float:
        """DC-DLA's tail JCT over the design's, same policy."""
        return (self.at(DC_BASELINE, policy).jct_p95
                / self.at(design, policy).jct_p95)

    def throughput_gain(self, design: str, policy: str) -> float:
        """Job throughput relative to DC-DLA, same policy."""
        return (self.at(design, policy).throughput
                / self.at(DC_BASELINE, policy).throughput)

    def best_policy(self, design: str) -> str:
        """The policy minimizing the design's JCT p95."""
        return min(self.policies,
                   key=lambda p: (self.at(design, p).jct_p95, p))

    def scalars(self) -> dict[str, Any]:
        """Flat key scalars (golden snapshot / determinism checks)."""
        out: dict[str, Any] = {}
        for (design, policy), s in sorted(self.stats.items()):
            prefix = f"{design}/{policy}"
            out[f"{prefix}/jct_p50"] = s.jct_p50
            out[f"{prefix}/jct_p95"] = s.jct_p95
            out[f"{prefix}/makespan"] = s.makespan
            out[f"{prefix}/queue_delay_mean"] = s.queue_delay_mean
            out[f"{prefix}/pool_utilization"] = s.pool_utilization
            out[f"{prefix}/fragmentation"] = s.fragmentation
            out[f"{prefix}/preemptions"] = s.preemptions
        return out


def run_cluster_comparison(
        policies: tuple[str, ...] = DEFAULT_POLICIES,
        n_jobs: int = DEFAULT_JOBS,
        seed: int = DEFAULT_SEED,
        pool_capacity: int = DEFAULT_POOL_CAPACITY,
        arrival_rate: float = DEFAULT_ARRIVAL_RATE,
        jobs: int = 1,
        cache: ResultCache | None = None) -> ClusterComparison:
    """Run the study's ``(design, policy)`` scenarios."""
    scenarios = {
        (design, policy): Scenario(
            name=f"{design}/{policy}", system=DesignSpec(design),
            fleet=FleetSpec(policy=policy, job_mix=DEFAULT_JOB_MIX,
                            n_jobs=n_jobs, seed=seed,
                            arrival_rate=arrival_rate,
                            pool_capacity=pool_capacity))
        for policy in policies for design in DESIGN_ORDER
    }
    results = run_study(scenarios, jobs=jobs, cache=cache)
    return ClusterComparison(
        job_mix=DEFAULT_JOB_MIX, n_jobs=n_jobs,
        pool_capacity=pool_capacity, policies=tuple(policies),
        stats={key: result.cluster for key, result in results.items()})


def format_cluster_comparison(study: ClusterComparison) -> str:
    """Render the policy x design matrix plus the headline summary."""
    rows = []
    for policy in study.policies:
        for design in DESIGN_ORDER:
            s = study.at(design, policy)
            rows.append([
                design, policy,
                s.jct_p50, s.jct_p95, s.queue_delay_mean,
                percent(s.device_utilization),
                percent(s.pool_utilization),
                percent(s.fragmentation),
                f"{s.throughput * 3600:.1f}",
            ])
    table = format_table(
        ["design", "policy", "JCT p50 (s)", "JCT p95 (s)", "wait (s)",
         "devices", "pool", "frag", "jobs/h"],
        rows,
        title=(f"Scheduling {study.n_jobs} {study.job_mix}-mix jobs "
               f"on a shared {study.pool_capacity / TB:.1f} TiB pool"))

    best = {design: study.best_policy(design)
            for design in DESIGN_ORDER}
    lines = [
        "best policy per design: " + ", ".join(
            f"{d}: {p}" for d, p in best.items()),
    ]
    for policy in study.policies:
        gains = ", ".join(
            f"{design}: {study.jct_p95_speedup(design, policy):.1f}x"
            for design in MC_DESIGNS)
        lines.append(f"JCT p95 gain over {DC_BASELINE} under "
                     f"{policy}: {gains}")
    worst_gain = min(study.throughput_gain(d, p)
                     for d in MC_DESIGNS for p in study.policies)
    lines.append(f"every MC design sustains >= {worst_gain:.2f}x "
                 f"{DC_BASELINE}'s job throughput at equal pool "
                 f"capacity")
    return table + "\n" + "\n".join(lines)
