"""The three workloads: seeded inputs, one pass, and its output check.

Module level imports only the standard library: the set-up probe
imports this module inside the interval it times.

* ``grid`` -- the paper's 96-cell evaluation grid through
  ``run_campaign``, no result cache.  Nearly all of it is the training
  simulator core (plan, price, emit, schedule, collect).
* ``claims-cold`` -- the shipped 170-cell ``paper_suite()`` through
  ``run_suite`` into an empty result cache on every pass, plus the
  verdict JSON.  The zero-bubble auto-scheduler dominates it.
* ``claims-warm`` -- the same suite replayed from a cache filled,
  untimed, before the passes.  It simulates nothing: cache keys,
  config building, cache reads and result decoding.

Every pass starts where a fresh ``python -m repro`` process starts
after import: pricing and design-point memos and the network memos are
empty, and ``$REPRO_CACHE_DIR`` is never read.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field

WORKLOADS = ("grid", "claims-cold", "claims-warm")
DEFAULT_SEED = 1

#: Relative tolerance of the output check (the repo's golden tolerance).
GOLDEN_RTOL = 1e-9

#: MC-DLA(B)'s mean speedup over DC-DLA in Kwon & Rhu (arXiv 1902.06468).
PAPER_MCB_SPEEDUP = 2.8

GRID_BATCH = 512

#: The modules a user's command imports before its first cell.
ENTRY_MODULES = {
    "grid": ("repro.experiments.matrix", "repro.campaign.runner"),
    "claims": ("repro.scenarios.paper", "repro.scenarios.runner",
               "repro.scenarios.verdict", "repro.campaign.cache",
               "repro.serving.server", "repro.cluster.simulator",
               "repro.pipeline.lowering"),
}

_STRATEGY_TAGS = {"data-parallel": "dp", "model-parallel": "mp"}


def input_kind(workload: str) -> str:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    return "grid" if workload == "grid" else "claims"


def permuted(items, seed: int, pass_index: int = 0) -> tuple:
    """``items`` in the order that the seed picks for one pass (same
    seed and pass, same order)."""
    items = list(items)
    random.Random(seed * 1_000_003 + pass_index).shuffle(items)
    return tuple(items)


def reordered(inputs, seed: int, pass_index: int):
    """The grid's points, or the claims suite with its scenarios, in
    the order of one pass.  Every pass gets its own order, so the
    latency percentiles cover many orders of memo sharing instead of
    hanging on one."""
    if isinstance(inputs, tuple):
        return permuted(inputs, seed, pass_index)
    from repro.scenarios.runner import ClaimSuite
    return ClaimSuite(name=inputs.name,
                      scenarios=permuted(inputs.scenarios, seed, pass_index),
                      claims=inputs.claims)


def build_inputs(kind: str, seed: int):
    """Import the entry modules and build the permuted inputs: the grid's
    campaign points, or the claims suite with its scenarios permuted."""
    for module in ENTRY_MODULES[kind]:
        importlib.import_module(module)
    if kind == "grid":
        from repro.experiments.matrix import evaluation_points
        return reordered(evaluation_points(GRID_BATCH), seed, 0)
    from repro.scenarios.paper import paper_suite
    return reordered(paper_suite(), seed, 0)


def cell_name(point) -> str:
    """A cell's name: the scenario name for claims cells, and the same
    ``design/network/dp|mp`` spelling for plain grid points."""
    if point.label is not None:
        return point.label
    return (f"{point.design}/{point.network}/"
            f"{_STRATEGY_TAGS[point.strategy.value]}")


def headline(result) -> dict:
    """The checked numbers of one result: iteration time and breakdown,
    plus the headline pipeline, serving, cluster and fault stats."""
    out = {"iteration_time": result.iteration_time,
           "breakdown.compute": result.breakdown.compute,
           "breakdown.sync": result.breakdown.sync,
           "breakdown.vmem": result.breakdown.vmem}
    if result.pipeline is not None:
        out["pipeline.bubble_time"] = result.pipeline.bubble_time
        out["pipeline.bubble_fraction"] = result.pipeline.bubble_fraction
        out["pipeline.wgrad_time"] = result.pipeline.wgrad_time
    if result.serving is not None:
        for name in ("throughput", "goodput", "slo_attainment",
                     "latency_p50", "latency_p99"):
            out[f"serving.{name}"] = getattr(result.serving, name)
    if result.cluster is not None:
        for name in ("makespan", "throughput", "jct_mean", "jct_p95",
                     "preemptions"):
            out[f"cluster.{name}"] = getattr(result.cluster, name)
    if result.faults is not None:
        for name in ("slowdown", "availability", "degraded_seconds",
                     "injected_events"):
            out[f"faults.{name}"] = getattr(result.faults, name)
    return out


def close(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return abs(expected - actual) <= GOLDEN_RTOL * max(abs(expected),
                                                           abs(actual))
    return expected == actual


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Fields of ``actual`` outside the golden tolerance of
    ``expected`` (a missing or extra field counts)."""
    keys = sorted(set(expected) | set(actual))
    return [key for key in keys
            if key not in expected or key not in actual
            or not close(expected[key], actual[key])]


def paper_gap_pct(iteration_times: dict) -> float:
    """|hmean(DC-DLA / MC-DLA(B) iteration time) - 2.8| / 2.8 x 100
    over the grid's 16 network x strategy cells."""
    from repro.dnn.registry import BENCHMARK_NAMES

    ratios = [iteration_times[f"DC-DLA/{network}/{tag}"]
              / iteration_times[f"MC-DLA(B)/{network}/{tag}"]
              for tag in ("dp", "mp") for network in BENCHMARK_NAMES]
    mean = len(ratios) / sum(1.0 / ratio for ratio in ratios)
    return abs(mean - PAPER_MCB_SPEEDUP) / PAPER_MCB_SPEEDUP * 100.0


@dataclass
class PassCheck:
    """Output-check accounting of one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    iteration_times: dict = field(default_factory=dict)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


def check_cells(outcomes, reference: dict, expected_cells,
                replay: dict | None = None) -> PassCheck:
    """Score each expected cell once: it fails when missing, errored,
    outside tolerance of its reference, or -- with ``replay`` (cell ->
    result JSON of the filling pass) -- not replayed byte for byte from
    the cache."""
    check = PassCheck(attempted=len(expected_cells))
    seen = {}
    for outcome in outcomes:
        seen[cell_name(outcome.point)] = outcome
    for name in expected_cells:
        outcome = seen.get(name)
        if outcome is None:
            check.fail(f"{name}: no outcome")
            continue
        if not outcome.ok:
            check.fail(f"{name}: {outcome.error}")
            continue
        result = outcome.result
        check.iteration_times[name] = result.iteration_time
        if name not in reference:
            check.fail(f"{name}: no reference values; re-record them")
            continue
        bad = mismatches(reference[name], headline(result))
        if bad:
            check.fail(f"{name}: outside rtol {GOLDEN_RTOL:g} in "
                       f"{', '.join(bad)}")
        elif replay is not None and (
                not outcome.cached
                or result_json(result) != replay.get(name)):
            check.fail(f"{name}: not replayed byte for byte from the "
                       f"cache")
    return check


def check_verdicts(check: PassCheck, report, rendered: str,
                   replay: str | None = None) -> None:
    """Score each claim verdict: it fails unless PASS.  With ``replay``
    (the rendered verdict JSON of the filling pass, which holds every
    verdict), a rendering that differs fails every verdict."""
    check.attempted += len(report.verdicts)
    if replay is not None and rendered != replay:
        check.fail("rendered verdict JSON differs from the filling pass",
                   len(report.verdicts))
        return
    for verdict in report.verdicts:
        if verdict.status.value != "PASS":
            check.fail(f"claim {verdict.claim}: {verdict.status.value} "
                       f"{verdict.detail}")


def result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class Workload:
    """One workload bound to its permuted inputs.

    ``prepare`` runs once, untimed, and returns its own check;
    ``reset`` runs before every pass, untimed; ``run_pass`` is the
    timed pass; ``check`` scores it.
    """

    def __init__(self, name: str, seed: int, reference: dict,
                 work_dir: str) -> None:
        self.seed = seed
        self.inputs = build_inputs(input_kind(name), seed)
        self._base = self.inputs
        self._passes = 0
        self.reference = reference
        from repro.campaign import runner
        from repro.core import design_points, pricing
        from repro.dnn import registry

        self._runner = runner
        self._design_points = design_points
        # Held before any tracer wraps them: the reset empties the
        # program's own lru caches.
        self._clear_memos = (pricing.clear_caches,
                             registry.build_network.cache_clear,
                             registry.decode_network.cache_clear)
        self.cells = self._cell_names()

    def _cell_names(self) -> tuple[str, ...]:
        return tuple(cell_name(point) for point in self.inputs)

    def order_digest(self) -> str:
        import hashlib
        return hashlib.sha256("\n".join(self.cells).encode()).hexdigest()

    def prepare(self) -> PassCheck:
        """One untimed, checked pass, so lazy imports and first-touch
        costs stay out of the timed passes."""
        return self._checked_pass()[2]

    def _checked_pass(self):
        """``(outcomes, output, check)`` of one pass after a reset."""
        outcomes = []
        self.reset()
        output = self.run_pass(
            lambda outcome, done, total: outcomes.append(outcome))
        return outcomes, output, self.check(outcomes, output)

    def reset(self) -> None:
        self._passes += 1
        self.inputs = reordered(self._base, self.seed, self._passes)
        for clear in self._clear_memos:
            clear()
        gc.collect()

    def run_pass(self, progress):
        return self._runner.run_campaign(
            self.inputs, factory=self._design_points.design_point,
            progress=progress)

    def check(self, outcomes, output) -> PassCheck:
        return check_cells(outcomes, self.reference, self.cells)

    def cache_tallies(self, output) -> dict:
        return {"hits": 0, "misses": 0, "read": 0, "written": 0}

    def close(self) -> None:
        pass


class ClaimsWorkload(Workload):
    """The shipped claims suite, cold (empty cache per pass) or warm."""

    def __init__(self, name, seed, reference, work_dir) -> None:
        super().__init__(name, seed, reference, work_dir)
        from repro.campaign.cache import ResultCache
        from repro.scenarios import runner, verdict

        self._cache_type = ResultCache
        self._suite_runner = runner
        self._verdict = verdict
        self.warm = name == "claims-warm"
        self._cache_dir = os.path.join(work_dir, "cache")
        self._replay: dict | None = None
        self._replay_rendered: str | None = None

    def _cell_names(self) -> tuple[str, ...]:
        return tuple(scenario.name for scenario in self.inputs.scenarios)

    def prepare(self) -> PassCheck:
        outcomes, (_, rendered, _), check = self._checked_pass()
        if self.warm:
            # The filling pass is the byte-for-byte reference of every
            # warm pass; its own check is against the recorded reference.
            self._replay = {cell_name(o.point): result_json(o.result)
                            for o in outcomes if o.ok}
            self._replay_rendered = rendered
        return check

    def reset(self) -> None:
        if not self.warm:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
        os.makedirs(self._cache_dir, exist_ok=True)
        super().reset()

    def run_pass(self, progress):
        cache = self._cache_type(self._cache_dir)
        report = self._suite_runner.run_suite(self.inputs, cache=cache,
                                              progress=progress)
        return report, self._verdict.render_json(report), cache

    def check(self, outcomes, output) -> PassCheck:
        report, rendered, _ = output
        check = check_cells(outcomes, self.reference, self.cells,
                            self._replay)
        check_verdicts(check, report, rendered, self._replay_rendered)
        return check

    def cache_tallies(self, output) -> dict:
        cache = output[2]
        return {"hits": cache.hits, "misses": cache.misses,
                "read": cache.bytes_read, "written": cache.bytes_written}

    def close(self) -> None:
        shutil.rmtree(self._cache_dir, ignore_errors=True)


def make_workload(name: str, seed: int, reference: dict,
                  work_dir: str) -> Workload:
    cls = Workload if input_kind(name) == "grid" else ClaimsWorkload
    return cls(name, seed, reference, work_dir)
