"""Ablation studies on the design choices DESIGN.md calls out.

Four ablations, each isolating one modeling/design decision:

* **offload window** -- vDNN's pinned-buffer depth (how many offloads
  may be in flight before forward compute stalls);
* **recompute rule** -- migrating cheap-layer outputs instead of
  recomputing them (footnote 4's optimization);
* **shared PCIe uplinks** -- DGX-1-style switch sharing vs dedicated
  per-device PCIe (the baseline's generosity);
* **interconnect shape** -- Figure 7(a) derivative vs 7(b) folded vs
  7(c) ring at identical hardware budgets.

All but the recompute rule are declared scenarios run through
:func:`repro.scenarios.runner.run_study` (the window depth rides on
``DesignSpec.replacements``, the 7(a) derivative is the registered
``MC-DLA(7a)`` design); the recompute ablation builds its iteration
plans itself (:func:`repro.core.schedule.iteration_plan`) because the
knob lives on the migration-policy side, below ``simulate()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.campaign.cache import ResultCache
from repro.experiments.report import format_table
from repro.scenarios.dsl import DesignSpec, Scenario, WorkloadSpec
from repro.scenarios.runner import run_study
from repro.training.parallel import ParallelStrategy
from repro.units import harmonic_mean

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.schedule import IterationPlan
    from repro.core.system import SystemConfig
    from repro.dnn.graph import Network

ABLATION_NETWORKS = ("VGG-E", "RNN-GRU")

_WINDOWS = (1, 2, 4, 8)

#: (study, variant) -> system, for every row but the recompute rule's.
_SYSTEMS: dict[tuple[str, str], DesignSpec] = {
    # 1. Offload window depth on the PCIe-bound baseline.
    **{("offload-window", f"w={window}"): DesignSpec(
        "DC-DLA", replacements=(("offload_window", window),
                                ("prefetch_window", window)))
       for window in _WINDOWS},
    # 3. Shared vs dedicated PCIe uplinks on the baseline.
    ("pcie-uplinks", "dedicated"): DesignSpec("DC-DLA"),
    ("pcie-uplinks", "shared"): DesignSpec(
        "DC-DLA", overrides=(("shared_uplinks", True),)),
    # 4. Interconnect shape at equal budgets (Figure 7 a/b/c).
    ("interconnect", "fig7a-derivative"): DesignSpec("MC-DLA(7a)"),
    ("interconnect", "fig7b-folded"): DesignSpec("MC-DLA(S)"),
    ("interconnect", "fig7c-ring"): DesignSpec("MC-DLA(B)"),
}


@dataclass(frozen=True)
class AblationRow:
    study: str
    variant: str
    mean_iteration_time: float

    def slowdown_vs(self, base: "AblationRow") -> float:
        return self.mean_iteration_time / base.mean_iteration_time


@dataclass(frozen=True)
class AblationResult:
    rows: tuple[AblationRow, ...]

    def row(self, study: str, variant: str) -> AblationRow:
        for row in self.rows:
            if (row.study, row.variant) == (study, variant):
                return row
        raise KeyError((study, variant))

    def variants(self, study: str) -> list[AblationRow]:
        return [r for r in self.rows if r.study == study]


def _recompute_plan(net: Network, batch: int, config: SystemConfig,
                    recompute: bool) -> IterationPlan:
    """The data-parallel iteration plan with the recompute knob set.

    Built outside ``plan_iteration``'s memo, so each call returns a
    new plan with its own op structures.
    """
    from repro.core.schedule import iteration_plan
    from repro.training.backprop import expand
    from repro.training.parallel import partition
    from repro.vmem.policy import MigrationPolicy

    strategy = ParallelStrategy.DATA
    return iteration_plan(
        net, batch, strategy,
        partition(net, batch, strategy, config.n_devices),
        expand(net, MigrationPolicy(recompute_cheap=recompute)))


def _recompute_rows(batch: int) -> list[AblationRow]:
    """Ablation 2: the recompute knob sits below ``simulate``."""
    from repro.core.design_points import dc_dla
    from repro.core.optable import schedule_ops
    from repro.core.schedule import build_iteration_ops
    from repro.dnn.registry import build_network

    rows = []
    for label, recompute in (("recompute-on", True),
                             ("recompute-off", False)):
        config = dc_dla()
        times = []
        for network in ABLATION_NETWORKS:
            plan = _recompute_plan(build_network(network), batch, config,
                                   recompute)
            ops = build_iteration_ops(plan, config)
            times.append(schedule_ops(ops).makespan)
        rows.append(AblationRow("recompute-rule", label,
                                harmonic_mean(times)))
    return rows


def run_ablations(batch: int = 512, jobs: int = 1,
                  cache: ResultCache | None = None) -> AblationResult:
    results = run_study({
        (study, variant, network): Scenario(
            name=f"{study}/{variant}/{network}", system=system,
            workload=WorkloadSpec(network, batch))
        for (study, variant), system in _SYSTEMS.items()
        for network in ABLATION_NETWORKS
    }, jobs=jobs, cache=cache)
    rows = [AblationRow(study, variant, harmonic_mean(
                [results[(study, variant, network)].iteration_time
                 for network in ABLATION_NETWORKS]))
            for study, variant in _SYSTEMS]
    # Ablation 2 follows the offload-window rows.
    split = len(_WINDOWS)
    return AblationResult(rows=tuple(
        rows[:split] + _recompute_rows(batch) + rows[split:]))


def format_ablations(result: AblationResult) -> str:
    table_rows = []
    for row in result.rows:
        base = result.variants(row.study)[-1]
        table_rows.append([row.study, row.variant,
                           row.mean_iteration_time * 1e3,
                           f"{row.slowdown_vs(base):.2f}x"])
    return format_table(
        ["study", "variant", "iter (ms)", "vs last variant"],
        table_rows, title="Ablation studies (harmonic mean over "
                          f"{', '.join(ABLATION_NETWORKS)})")
