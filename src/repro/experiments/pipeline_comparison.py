"""Pipeline-parallel comparison study (post-paper extension).

For the transformer workload family, compares every design point under
six parallelization variants -- data-parallel, model-parallel, and
pipeline-parallel with the GPipe fill-drain, 1F1B, ZB-H1 zero-bubble,
and interleaved virtual-stage schedules -- reporting iteration time,
pipeline bubble fraction, and per-device virtualization traffic.  Two
headlines: fill-drain's ``M``-deep activation stash pays a migration
round-trip that 1F1B mostly avoids, and the gap between the two
schedules *shrinks* as the memory system gets closer to the devices --
the paper's memory-centric argument, replayed on workloads from the
transformer era; on top of that, splitting backward into B/W ops lets
ZB-H1 fill 1F1B's steady-state bubbles with deferred weight-grad work
at the same activation-stash bound.

The cells are declared as scenarios and run through the scenario
runner, so they fan out across worker processes and replay from the
shared disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.cache import ResultCache
from repro.core.design_points import DESIGN_ORDER
from repro.core.metrics import SimulationResult
from repro.dnn.registry import TRANSFORMER_NAMES
from repro.experiments.report import format_table, percent
from repro.scenarios.dsl import DesignSpec, Scenario, WorkloadSpec
from repro.scenarios.runner import run_study

#: Presentation order of the strategy variants: ``strategy`` or
#: ``pipeline/<schedule>``.
VARIANTS = ("data", "model", "pipeline/gpipe", "pipeline/1f1b",
            "pipeline/zb-h1", "pipeline/interleaved")

DEFAULT_BATCH = 512
DEFAULT_MICROBATCHES = 8


@dataclass(frozen=True)
class PipelineComparison:
    """All (network, design, variant) cells of the study."""

    batch: int
    microbatches: int
    #: (network, design, variant) -> result.
    results: dict[tuple[str, str, str], SimulationResult]

    def result(self, network: str, design: str,
               variant: str) -> SimulationResult:
        return self.results[(network, design, variant)]

    def schedule_gap(self, network: str, design: str) -> float:
        """GPipe's bubble-time excess over 1F1B (seconds, per stage
        aggregate) -- the cost of the fill-drain activation stash."""
        gpipe = self.result(network, design, "pipeline/gpipe")
        one_f = self.result(network, design, "pipeline/1f1b")
        return gpipe.pipeline.bubble_time - one_f.pipeline.bubble_time

    def zero_bubble_gap(self, network: str, design: str) -> float:
        """1F1B's bubble-time excess over ZB-H1 (seconds) -- what
        filling the steady-state bubbles with deferred W work buys."""
        one_f = self.result(network, design, "pipeline/1f1b")
        zb = self.result(network, design, "pipeline/zb-h1")
        return one_f.pipeline.bubble_time - zb.pipeline.bubble_time


def _workload(network: str, variant: str, batch: int,
              microbatches: int) -> WorkloadSpec:
    strategy, _, schedule = variant.partition("/")
    # The schedule knob only lowers under the pipeline strategy.
    return WorkloadSpec(network, batch=batch, strategy=strategy,
                        microbatches=microbatches,
                        schedule=schedule or "1f1b")


def run_pipeline_comparison(
        batch: int = DEFAULT_BATCH,
        microbatches: int = DEFAULT_MICROBATCHES,
        jobs: int = 1,
        cache: ResultCache | None = None) -> PipelineComparison:
    """Run the study's ``(network, design, variant)`` scenarios."""
    scenarios = {
        (network, design, variant): Scenario(
            name=f"{network}/{design}/{variant}",
            system=DesignSpec(design),
            workload=_workload(network, variant, batch, microbatches))
        for variant in VARIANTS for network in TRANSFORMER_NAMES
        for design in DESIGN_ORDER
    }
    return PipelineComparison(
        batch=batch, microbatches=microbatches,
        results=run_study(scenarios, jobs=jobs, cache=cache))


def format_pipeline_comparison(study: PipelineComparison) -> str:
    """Render one table per transformer workload."""
    blocks = []
    for network in TRANSFORMER_NAMES:
        rows = []
        for design in DESIGN_ORDER:
            for variant in VARIANTS:
                result = study.result(network, design, variant)
                bubble = (percent(result.pipeline.bubble_fraction)
                          if result.pipeline is not None else "--")
                rows.append([
                    design, variant,
                    result.iteration_time * 1e3,
                    result.throughput,
                    bubble,
                    result.round_trip_bytes_per_device / 1e9,
                ])
        table = format_table(
            ["design", "strategy", "iter (ms)", "samples/s", "bubble",
             "vmem GB/dev"],
            rows,
            title=(f"{network} @ batch {study.batch} "
                   f"({study.microbatches} microbatches)"))
        gaps = ", ".join(
            f"{design}: {study.schedule_gap(network, design) * 1e3:.1f}ms"
            for design in DESIGN_ORDER)
        zb_gaps = ", ".join(
            f"{design}: "
            f"{study.zero_bubble_gap(network, design) * 1e3:.1f}ms"
            for design in DESIGN_ORDER)
        blocks.append(f"{table}\n1F1B bubble savings over fill-drain "
                      f"({network}): {gaps}\nZB-H1 bubble savings over "
                      f"1F1B ({network}): {zb_gaps}")
    return "\n\n".join(blocks)
