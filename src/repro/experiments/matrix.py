"""The shared evaluation matrix: 6 designs x 8 workloads x 2 strategies.

Figures 11, 12, and 13 all read from this grid.  It is a declarative
campaign over :mod:`repro.campaign`: cells fan out across a process
pool when ``jobs > 1``, replay from the on-disk result cache when one
is configured (``$REPRO_CACHE_DIR`` or an explicit ``cache_dir``), and
an ``lru_cache`` keeps the built matrix identical-by-identity within a
process so every figure reports consistent numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.campaign.cache import ResultCache
from repro.campaign.points import CampaignPoint, grid
from repro.campaign.runner import run_campaign
from repro.core.design_points import DESIGN_ORDER
from repro.core.metrics import SimulationResult
from repro.dnn.registry import BENCHMARK_NAMES
from repro.training.parallel import ParallelStrategy

STRATEGIES = (ParallelStrategy.DATA, ParallelStrategy.MODEL)


@dataclass(frozen=True)
class EvaluationMatrix:
    """All (design, workload, strategy) simulation results."""

    batch: int
    results: dict[tuple[str, str, ParallelStrategy], SimulationResult]

    def result(self, design: str, network: str,
               strategy: ParallelStrategy) -> SimulationResult:
        return self.results[(design, network, strategy)]

    def speedup(self, design: str, network: str,
                strategy: ParallelStrategy,
                baseline: str = "DC-DLA") -> float:
        return self.result(design, network, strategy).speedup_over(
            self.result(baseline, network, strategy))

    def performance(self, design: str, network: str,
                    strategy: ParallelStrategy,
                    reference: str = "DC-DLA(O)") -> float:
        """Throughput normalized to the oracle (Figure 13's y-axis)."""
        return self.result(design, network, strategy).performance_vs(
            self.result(reference, network, strategy))


def evaluation_points(batch: int = 512) -> tuple[CampaignPoint, ...]:
    """The paper's full evaluation grid as campaign points."""
    return grid(DESIGN_ORDER, BENCHMARK_NAMES, (batch,), STRATEGIES)


def compute_evaluation_matrix(
        batch: int = 512, jobs: int = 1,
        cache: ResultCache | None = None) -> EvaluationMatrix:
    """Run the full grid through the campaign engine (no memoization)."""
    report = run_campaign(evaluation_points(batch), jobs=jobs,
                          cache=cache).raise_failures()
    results = {(o.point.design, o.point.network, o.point.strategy):
               o.result for o in report.outcomes}
    return EvaluationMatrix(batch=batch, results=results)


@lru_cache(maxsize=4)
def evaluation_matrix(batch: int = 512, jobs: int = 1,
                      cache_dir: str | None = None) -> EvaluationMatrix:
    """Run (and cache) the full grid at a batch size.

    ``cache_dir`` points the disk cache somewhere explicit; when
    ``None``, ``$REPRO_CACHE_DIR`` is honoured if set and the campaign
    otherwise runs uncached (exactly the seed behaviour).
    """
    cache = (ResultCache(cache_dir) if cache_dir is not None
             else ResultCache.from_env())
    return compute_evaluation_matrix(batch, jobs=jobs, cache=cache)
