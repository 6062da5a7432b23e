"""Serving comparison: six designs under rising load until SLO collapse.

The paper's evaluation stops at steady-state training iterations; this
study replays its six-design comparison on the workload the follow-on
memory-centric-computing literature actually targets -- bursty
inference serving.  Each design serves an open-loop GPT2 request trace
through the dynamic batcher at a ladder of arrival rates; a
consolidated multi-tenant node streams the model's weights from the
backing store per batch, so the virtualization channel prices directly
into every request's service time.

The headline mirrors Figure 13 in queueing clothes: the device-centric
baseline's PCIe-attached backing store saturates first -- its SLO
attainment collapses an order of magnitude below the memory-centric
designs' knee -- while MC-DLA(B) tracks the infinite-memory oracle
within a few percent of goodput at every load.

The cells are declared as scenarios and run through the scenario
runner (process fan-out + disk cache).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.cache import ResultCache
from repro.core.design_points import DESIGN_ORDER
from repro.core.metrics import ServingStats
from repro.experiments.report import format_table, percent
from repro.scenarios.dsl import (DesignSpec, Scenario, TrafficSpec,
                                 WorkloadSpec)
from repro.scenarios.runner import run_study

DEFAULT_NETWORK = "GPT2"
#: The offered-load ladder (requests/sec) climbed until SLO collapse.
DEFAULT_RATES = (100.0, 200.0, 400.0, 800.0, 1600.0, 2400.0, 3200.0)
DEFAULT_SLO_MS = 50.0
DEFAULT_POLICY = (8, 2.0)  # max batch 8, 2 ms deadline
#: A design "meets" the SLO at a rate when at least this fraction of
#: requests complete within it.
ATTAINMENT_KNEE = 0.99

#: The memory-centric designs and the device-centric baseline they
#: must beat at the knee (HC-DLA's hypothetical 300 GB/s socket makes
#: it a separate, stronger reference point).
MC_DESIGNS = ("MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)")
DC_BASELINES = ("DC-DLA",)


@dataclass(frozen=True)
class ServingComparison:
    """All (design, rate) serving cells of the study."""

    network: str
    slo_ms: float
    rates: tuple[float, ...]
    #: (design, rate) -> serving statistics.
    stats: dict[tuple[str, float], ServingStats]

    def at(self, design: str, rate: float) -> ServingStats:
        return self.stats[(design, rate)]

    def knee_rate(self, design: str) -> float:
        """The highest swept rate the design still serves within SLO
        (attainment >= ``ATTAINMENT_KNEE``); the first rung if none."""
        sustained = [r for r in self.rates
                     if self.at(design, r).slo_attainment
                     >= ATTAINMENT_KNEE]
        return max(sustained) if sustained else self.rates[0]

    def knee_goodput(self, design: str) -> float:
        """Goodput at the design's own SLO knee."""
        return self.at(design, self.knee_rate(design)).goodput

    def peak_goodput(self, design: str) -> float:
        """Best goodput anywhere on the ladder (post-knee included)."""
        return max(self.at(design, r).goodput for r in self.rates)


def run_serving_comparison(
        network: str = DEFAULT_NETWORK,
        rates: tuple[float, ...] = DEFAULT_RATES,
        slo_ms: float = DEFAULT_SLO_MS,
        policy: tuple[int, float] = DEFAULT_POLICY,
        n_requests: int = 512,
        jobs: int = 1,
        cache: ResultCache | None = None) -> ServingComparison:
    """Run the study's ``(design, rate)`` scenarios."""
    max_batch, max_wait_ms = policy
    scenarios = {
        (design, float(rate)): Scenario(
            name=f"{design}/{rate:g}", system=DesignSpec(design),
            workload=WorkloadSpec(network),
            traffic=TrafficSpec(rate=rate, n_requests=n_requests,
                                slo_ms=slo_ms, max_batch=max_batch,
                                max_wait_ms=max_wait_ms))
        for rate in rates for design in DESIGN_ORDER
    }
    results = run_study(scenarios, jobs=jobs, cache=cache)
    return ServingComparison(
        network=network, slo_ms=slo_ms,
        rates=tuple(float(r) for r in rates),
        stats={key: result.serving for key, result in results.items()})


def format_serving_comparison(study: ServingComparison) -> str:
    """Render the ladder per design plus the knee summary."""
    rows = []
    for design in DESIGN_ORDER:
        for rate in study.rates:
            s = study.at(design, rate)
            rows.append([
                design, f"{rate:g}",
                s.latency_p50 * 1e3, s.latency_p95 * 1e3,
                s.latency_p99 * 1e3,
                percent(s.slo_attainment),
                s.goodput,
                f"{s.tail_amplification:.2f}x",
            ])
    table = format_table(
        ["design", "req/s", "p50 (ms)", "p95 (ms)", "p99 (ms)",
         "SLO att.", "goodput", "tail amp"],
        rows,
        title=(f"Serving {study.network} under a "
               f"{study.slo_ms:g} ms SLO (dynamic batching)"))

    knees = ", ".join(
        f"{design}: {study.knee_rate(design):g} req/s "
        f"({study.knee_goodput(design):.0f} good req/s)"
        for design in DESIGN_ORDER)
    best_dc = max(study.knee_goodput(d) for d in DC_BASELINES)
    worst_mc = min(study.knee_goodput(d) for d in MC_DESIGNS)
    ratio = worst_mc / max(best_dc, 1e-12)
    oracle_track = (study.peak_goodput("MC-DLA(B)")
                    / study.peak_goodput("DC-DLA(O)"))
    summary = [
        f"SLO knee per design: {knees}",
        f"memory-centric vs the device-centric baseline at the knee: "
        f"worst MC sustains {ratio:.2f}x DC-DLA's goodput",
        f"MC-DLA(B) peak goodput reaches "
        f"{percent(oracle_track)} of the infinite-memory oracle",
    ]
    return table + "\n" + "\n".join(summary)
