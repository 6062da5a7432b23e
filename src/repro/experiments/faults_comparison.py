"""Fault-model comparison: graceful degradation, end to end.

The paper's pooled-memory argument assumes the disaggregation fabric
stays healthy; the related far-memory literature (PAPERS.md) shows
that assumption is the first casualty of production.  This study runs
the whole fault axis -- the ``none`` healthy baseline, timed
``flaky-link`` flaps, a standing ``degraded-link`` derating, a
``straggler`` device, a mid-run ``node-loss``, and the everything-at-
once ``storm`` -- across all six designs in four execution modes:

* **training**: one data-parallel iteration of a convolutional
  workload under duty-cycle-blended link degradation;
* **pipeline**: a 1F1B transformer pipeline, where a degraded fabric
  stretches both the stage sends and the stash traffic;
* **serving**: a dynamic-batching tenant whose recovery levers are
  SLO-aware load shedding and request timeouts;
* **cluster**: a multi-job fleet where flaps dilate in-flight jobs,
  a pool-node loss force-evicts the newest tenants, and evicted jobs
  retry with exponential backoff billed through the preemption ledger.

Headlines: every design degrades monotonically with fault severity
(``none`` is always the fastest leg -- asserted by the differential
test suite), the memory-centric designs carry the larger storm
slowdown because their traffic rides the degraded fabric, and the
``availability`` column quantifies what graceful degradation saved
versus a system that simply stops.

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
from repro.faults.model import FAULT_MODEL_ORDER


@dataclass(frozen=True)
class FaultComparison:
    """All (mode, design, fault model) cells of the study."""

    models: tuple[str, ...]
    modes: tuple[str, ...]
    #: (mode, design, model) -> the cell's simulation result.
    results: dict[tuple[str, str, str], SimulationResult]

    def at(self, mode: str, design: str,
           model: str) -> SimulationResult:
        return self.results[(mode, design, model)]

    def slowdown(self, mode: str, design: str, model: str) -> float:
        """Faulted over healthy-twin time; 1.0 for the null model."""
        result = self.at(mode, design, model)
        return (result.faults.slowdown
                if result.faults is not None else 1.0)

    def scalars(self) -> dict[str, Any]:
        """Flat key scalars (golden snapshot / determinism checks)."""
        out: dict[str, Any] = {}
        for (mode, design, model), result in sorted(
                self.results.items()):
            prefix = f"{mode}/{design}/{model}"
            if mode in ("training", "pipeline"):
                out[f"{prefix}/iteration_time"] = result.iteration_time
            if mode == "serving":
                out[f"{prefix}/latency_p99"] = \
                    result.serving.latency_p99
                out[f"{prefix}/goodput"] = result.serving.goodput
            if mode == "cluster":
                out[f"{prefix}/makespan"] = result.iteration_time
                out[f"{prefix}/jct_p95"] = result.cluster.jct_p95
            stats = result.faults
            if stats is not None:
                out[f"{prefix}/injected_events"] = stats.injected_events
                out[f"{prefix}/slowdown"] = stats.slowdown
                out[f"{prefix}/availability"] = stats.availability
                out[f"{prefix}/retries"] = stats.retries
                out[f"{prefix}/shed_requests"] = stats.shed_requests
                out[f"{prefix}/timed_out_requests"] = \
                    stats.timed_out_requests
                out[f"{prefix}/recovery_bytes"] = stats.recovery_bytes
        return out


def run_fault_comparison(models=FAULT_MODEL_ORDER, modes=MODES,
                         cluster_jobs: int = DEFAULT_CLUSTER_JOBS,
                         training_network: str =
                         DEFAULT_TRAINING_NETWORK,
                         jobs: int = 1,
                         cache: ResultCache | None = None) \
        -> FaultComparison:
    """Run the study through the scenario runner."""
    return run_mode_study(FaultComparison, "fault_model", models, modes,
                          cluster_jobs, training_network, jobs, cache)


def _fault_cells(result: SimulationResult) -> list:
    """The shared slowdown/availability/events tail of every row."""
    stats = result.faults
    if stats is None:
        return ["1.00x", percent(1.0), 0]
    return [f"{stats.slowdown:.2f}x", percent(stats.availability),
            stats.injected_events]


def _mode_rows(study: FaultComparison, mode: str) -> list[list]:
    rows = []
    for design in DESIGN_ORDER:
        for model in study.models:
            result = study.at(mode, design, model)
            stats = result.faults
            row = [design, model]
            if mode in ("training", "pipeline"):
                row += [result.iteration_time * 1e3]
            elif mode == "serving":
                serving = result.serving
                row += [
                    serving.latency_p99 * 1e3,
                    f"{serving.goodput:.1f}",
                    stats.shed_requests if stats else 0,
                    stats.timed_out_requests if stats else 0,
                ]
            else:
                cluster = result.cluster
                row += [
                    f"{result.iteration_time:.1f}",
                    f"{cluster.jct_p95:.1f}",
                    stats.retries if stats else 0,
                ]
            rows.append(row + _fault_cells(result))
    return rows


_MODE_HEADERS = {
    "training": ["design", "fault", "iter (ms)", "slowdown",
                 "avail.", "events"],
    "pipeline": ["design", "fault", "iter (ms)", "slowdown",
                 "avail.", "events"],
    "serving": ["design", "fault", "p99 (ms)", "goodput", "shed",
                "timeout", "slowdown", "avail.", "events"],
    "cluster": ["design", "fault", "makespan (s)", "JCT p95 (s)",
                "retries", "slowdown", "avail.", "events"],
}


def format_fault_comparison(study: FaultComparison) -> str:
    """Render one table per mode plus the headline summary."""
    blocks = []
    for mode in study.modes:
        blocks.append(format_table(
            _MODE_HEADERS[mode], _mode_rows(study, mode),
            title=f"Fault models x designs: {mode}"))
    lines = []
    if "storm" in study.models:
        for mode in study.modes:
            worst = max(DESIGN_ORDER,
                        key=lambda d: (study.slowdown(mode, d, "storm"),
                                       d))
            lines.append(
                f"worst storm slowdown ({mode}): {worst} at "
                f"{study.slowdown(mode, worst, 'storm'):.2f}x")
    return "\n".join(blocks) + "\n" + "\n".join(lines)


__all__ = ["FaultComparison", "MODES", "format_fault_comparison",
           "run_fault_comparison", "scalars_json"]
