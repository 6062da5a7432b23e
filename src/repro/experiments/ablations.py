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

All but the recompute rule are declarative campaign grids (the window
depth rides on ``CampaignPoint.replacements``, the 7(a) derivative on
a custom design factory); the recompute ablation rebuilds iteration
plans by hand because the knob lives on the migration-policy side,
below ``simulate()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.campaign import CampaignPoint, ResultCache, run_campaign
from repro.campaign.runner import CampaignReport
from repro.core.design_points import design_point, mc_dla_star
from repro.core.system import CollectiveModel, SystemConfig, VmemModel
from repro.experiments.report import format_table
from repro.interconnect.builders import build_fig7a_derivative
from repro.training.parallel import ParallelStrategy
from repro.units import harmonic_mean

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.schedule import IterationPlan
    from repro.dnn.graph import Network

ABLATION_NETWORKS = ("VGG-E", "RNN-GRU")

_WINDOWS = (1, 2, 4, 8)


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


def _fig7a_config() -> SystemConfig:
    topo = build_fig7a_derivative()
    star = mc_dla_star()
    return SystemConfig(
        name="MC-DLA(7a)", device=star.device, n_devices=8,
        collectives=CollectiveModel.from_topology(topo),
        vmem=VmemModel(topo.vmem), memory_node=star.memory_node)


def ablation_design(name: str, **kwargs) -> SystemConfig:
    """Design factory extending the paper's six with the 7(a) shape."""
    if name == "MC-DLA(7a)":
        return _fig7a_config()
    return design_point(name, **kwargs)


def ablation_points(batch: int = 512) -> tuple[CampaignPoint, ...]:
    """The campaign grid behind ablations 1, 3, and 4."""
    points = []

    def cells(label, design, overrides=(), replacements=()):
        for network in ABLATION_NETWORKS:
            points.append(CampaignPoint(
                design=design, network=network, batch=batch,
                strategy=ParallelStrategy.DATA, overrides=overrides,
                replacements=replacements, label=label))

    # 1. Offload window depth on the PCIe-bound baseline.
    for window in _WINDOWS:
        cells(f"dc/w={window}", "DC-DLA",
              replacements=(("offload_window", window),
                            ("prefetch_window", window)))
    # 3. Shared vs dedicated PCIe uplinks on the baseline.
    cells("dc/dedicated", "DC-DLA")
    cells("dc/shared", "DC-DLA", overrides=(("shared_uplinks", True),))
    # 4. Interconnect shape at equal budgets (Figure 7 a/b/c).
    cells("fig7a", "MC-DLA(7a)")
    cells("fig7b", "MC-DLA(S)")
    cells("fig7c", "MC-DLA(B)")
    return tuple(points)


def _mean_time(report: CampaignReport, label: str, batch: int) -> float:
    times = [report.result(label, network, batch,
                           ParallelStrategy.DATA).iteration_time
             for network in ABLATION_NETWORKS]
    return harmonic_mean(times)


def _recompute_plan(net: Network, batch: int, config: SystemConfig,
                    recompute: bool) -> IterationPlan:
    """The data-parallel iteration plan with the recompute knob set.

    Built by hand (not through ``plan_iteration``'s memo), so each
    call returns a new plan with its own op structures.
    """
    from repro.core.schedule import IterationPlan
    from repro.training.backprop import expand
    from repro.training.parallel import partition
    from repro.vmem.policy import MigrationAction, MigrationPolicy

    plans = MigrationPolicy(recompute_cheap=recompute).plan(net, batch)
    parts = {p.name: p for p in partition(
        net, batch, ParallelStrategy.DATA, config.n_devices)}
    migrated = {p.producer: parts[p.producer].out_shard_bytes
                for p in plans if p.action is MigrationAction.OFFLOAD}
    return IterationPlan(net=net, batch=batch,
                         strategy=ParallelStrategy.DATA, parts=parts,
                         step=expand(net, plans),
                         migrated_shards=migrated)


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
    report = run_campaign(ablation_points(batch), jobs=jobs,
                          cache=cache,
                          factory=ablation_design).raise_failures()

    rows: list[AblationRow] = []
    for window in _WINDOWS:
        rows.append(AblationRow(
            "offload-window", f"w={window}",
            _mean_time(report, f"dc/w={window}", batch)))
    rows.extend(_recompute_rows(batch))
    rows.append(AblationRow("pcie-uplinks", "dedicated",
                            _mean_time(report, "dc/dedicated", batch)))
    rows.append(AblationRow("pcie-uplinks", "shared",
                            _mean_time(report, "dc/shared", batch)))
    rows.append(AblationRow("interconnect", "fig7a-derivative",
                            _mean_time(report, "fig7a", batch)))
    rows.append(AblationRow("interconnect", "fig7b-folded",
                            _mean_time(report, "fig7b", batch)))
    rows.append(AblationRow("interconnect", "fig7c-ring",
                            _mean_time(report, "fig7c", batch)))
    return AblationResult(rows=tuple(rows))


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
