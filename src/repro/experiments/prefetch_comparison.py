"""Prefetch-policy comparison: the timeliness/waste trade-off, end to end.

The memory-centric argument only holds when migration traffic overlaps
compute, and the related far-memory literature (PAPERS.md) shows the
prefetch policy alone swings stall time by integer factors.  This
study runs the whole policy axis -- the legacy ``on-demand`` baseline,
the minimal ``next-op`` lookahead, the speculative ``stride``
predictor, the latency-model-driven ``cost-model``, and the
``clairvoyant`` schedule oracle -- across all six designs in four
execution modes:

* **training**: one data-parallel iteration of a convolutional
  workload, the paper's stress test;
* **pipeline**: a 1F1B transformer pipeline, where each stage's stash
  prefetches ride a private DMA channel;
* **serving**: a dynamic-batching tenant under load, where the same
  policies gate multi-tenant weight streaming;
* **cluster**: a multi-job fleet over one shared pool, where the
  policy prices each job's spill-dilation exposure.

Headlines: the clairvoyant oracle strictly reduces offload stall
versus on-demand on every memory-centric design (and weakly dominates
every policy everywhere -- asserted by the differential test suite),
while the stride predictor shows the waste side of the trade-off:
mispredicted and evicted speculative fetches move gigabytes nothing
consumes.

The cells are the shared four-mode scenarios of
:mod:`repro.experiments.modes`, run through the scenario runner
(process fan-out + disk cache); two runs produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.campaign.cache import ResultCache
from repro.core.design_points import DESIGN_ORDER
from repro.core.metrics import SimulationResult
from repro.experiments.modes import (DEFAULT_CLUSTER_JOBS,
                                     DEFAULT_TRAINING_NETWORK, MODES,
                                     run_mode_study, scalars_json)
from repro.experiments.report import format_table, percent
from repro.units import GB
from repro.vmem.prefetch import ON_DEMAND, PREFETCH_POLICY_ORDER

#: The designs the strict stall-reduction claim covers.
MC_DESIGNS = ("MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)")


@dataclass(frozen=True)
class PrefetchComparison:
    """All (mode, design, policy) cells of the study."""

    policies: tuple[str, ...]
    modes: tuple[str, ...]
    #: (mode, design, policy) -> the cell's simulation result.
    results: dict[tuple[str, str, str], SimulationResult]

    def at(self, mode: str, design: str,
           policy: str) -> SimulationResult:
        return self.results[(mode, design, policy)]

    def stall(self, mode: str, design: str, policy: str) -> float:
        return self.at(mode, design, policy).prefetch.stall_seconds

    def stall_reduction(self, design: str,
                        policy: str = "clairvoyant",
                        mode: str = "training") -> float:
        """Seconds of offload stall the policy removes vs on-demand."""
        return (self.stall(mode, design, ON_DEMAND)
                - self.stall(mode, design, policy))

    def scalars(self) -> dict[str, Any]:
        """Flat key scalars (golden snapshot / determinism checks)."""
        out: dict[str, Any] = {}
        for (mode, design, policy), result in sorted(
                self.results.items()):
            prefix = f"{mode}/{design}/{policy}"
            stats = result.prefetch
            if stats is not None:
                out[f"{prefix}/stall_seconds"] = stats.stall_seconds
                out[f"{prefix}/hit_rate"] = stats.hit_rate
                out[f"{prefix}/wasted_bytes"] = stats.wasted_bytes
                out[f"{prefix}/evictions"] = stats.evictions
            if mode in ("training", "pipeline"):
                out[f"{prefix}/iteration_time"] = result.iteration_time
            if mode == "serving":
                out[f"{prefix}/latency_p99"] = \
                    result.serving.latency_p99
                out[f"{prefix}/goodput"] = result.serving.goodput
            if mode == "cluster":
                out[f"{prefix}/jct_p95"] = result.cluster.jct_p95
                out[f"{prefix}/queue_delay_mean"] = \
                    result.cluster.queue_delay_mean
        return out


def run_prefetch_comparison(policies=PREFETCH_POLICY_ORDER,
                            modes=MODES,
                            cluster_jobs: int = DEFAULT_CLUSTER_JOBS,
                            training_network: str =
                            DEFAULT_TRAINING_NETWORK,
                            jobs: int = 1,
                            cache: ResultCache | None = None) \
        -> PrefetchComparison:
    """Run the study through the scenario runner."""
    return run_mode_study(PrefetchComparison, "prefetch_policy",
                          policies, modes, cluster_jobs,
                          training_network, jobs, cache)


def _mode_rows(study: PrefetchComparison, mode: str) -> list[list]:
    rows = []
    for design in DESIGN_ORDER:
        for policy in study.policies:
            result = study.at(mode, design, policy)
            stats = result.prefetch
            row = [design, policy]
            if mode in ("training", "pipeline"):
                row += [
                    result.iteration_time * 1e3,
                    stats.stall_seconds * 1e3,
                    percent(stats.hit_rate),
                    f"{stats.wasted_bytes / GB:.2f}",
                    stats.evictions,
                ]
            elif mode == "serving":
                serving = result.serving
                row += [
                    serving.latency_p99 * 1e3,
                    f"{serving.goodput:.1f}",
                    percent(serving.slo_attainment),
                    f"{stats.wasted_bytes / GB:.2f}" if stats else "--",
                ]
            else:
                cluster = result.cluster
                row += [
                    f"{cluster.jct_p95:.1f}",
                    f"{cluster.queue_delay_mean:.1f}",
                    f"{cluster.throughput * 3600:.1f}",
                ]
            rows.append(row)
    return rows


_MODE_HEADERS = {
    "training": ["design", "policy", "iter (ms)", "stall (ms)",
                 "hit rate", "waste (GiB)", "evictions"],
    "pipeline": ["design", "policy", "iter (ms)", "stall (ms)",
                 "hit rate", "waste (GiB)", "evictions"],
    "serving": ["design", "policy", "p99 (ms)", "goodput",
                "SLO att.", "waste (GiB)"],
    "cluster": ["design", "policy", "JCT p95 (s)", "wait (s)",
                "jobs/h"],
}


def format_prefetch_comparison(study: PrefetchComparison) -> str:
    """Render one table per mode plus the headline summary."""
    blocks = []
    for mode in study.modes:
        blocks.append(format_table(
            _MODE_HEADERS[mode], _mode_rows(study, mode),
            title=f"Prefetch policies x designs: {mode}"))
    lines = []
    if "training" in study.modes:
        # Headlines only exist for the policies actually swept.
        if ON_DEMAND in study.policies \
                and "clairvoyant" in study.policies:
            gains = ", ".join(
                f"{design}: "
                f"-{study.stall_reduction(design) * 1e3:.1f}ms"
                for design in MC_DESIGNS)
            lines.append(
                "clairvoyant removes offload stall vs on-demand on "
                f"every memory-centric design (training): {gains}")
        if "stride" in study.policies:
            waste = sum(
                study.at("training", design,
                         "stride").prefetch.wasted_bytes
                for design in DESIGN_ORDER)
            lines.append(
                f"stride speculation moved {waste / GB:.1f} GiB of "
                f"wasted prefetch traffic across the training matrix")
        best = {}
        for design in DESIGN_ORDER:
            best[design] = min(
                study.policies,
                key=lambda p: (study.stall("training", design, p), p))
        lines.append("lowest-stall policy per design (training): "
                     + ", ".join(f"{d}: {p}" for d, p in best.items()))
    return "\n".join(blocks) + "\n" + "\n".join(lines)


__all__ = ["MC_DESIGNS", "MODES", "PrefetchComparison",
           "format_prefetch_comparison", "run_prefetch_comparison",
           "scalars_json"]
