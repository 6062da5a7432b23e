"""Execute scenarios through the campaign engine.

:func:`run_scenarios` is the one place scenarios meet the engine: it
lowers every scenario to a campaign point and fans the cells out
through :func:`repro.campaign.runner.run_campaign` (same process pool,
same content-addressed cache as CLI campaigns) under the
:func:`~repro.scenarios.lowering.scenario_design_point` factory, so a
cell declared once keys one cache entry whoever runs it.  Two callers:

* :func:`run_suite` evaluates a :class:`ClaimSuite`'s claims against
  the per-scenario results.  A scenario that fails to simulate does
  not abort the run: every claim binding it reports ERROR with the
  cell's error text, and unrelated claims still evaluate.
* :func:`run_study` runs a comparison study's ``{key: Scenario}``
  declaration and hands the results back under the same keys.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TypeVar

from repro.campaign.cache import ResultCache
from repro.campaign.runner import (CampaignReport, CellOutcome,
                                   ProgressFn, run_campaign)
from repro.core.metrics import SimulationResult
from repro.scenarios.claims import Claim, evaluate_claims
from repro.scenarios.dsl import Scenario
from repro.scenarios.lowering import lower_scenario, scenario_design_point
from repro.scenarios.verdict import SuiteReport


class ScenarioExecutionError(RuntimeError):
    """A claim bound a scenario whose cell failed (or is unknown)."""


@dataclass(frozen=True)
class ClaimSuite:
    """Named scenarios plus the claims that bind them."""

    name: str
    scenarios: tuple[Scenario, ...]
    claims: tuple[Claim, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "claims", tuple(self.claims))
        names = [s.name for s in self.scenarios]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"suite {self.name!r}: duplicate "
                             f"scenario name(s): {', '.join(sorted(dupes))}")
        claim_names = [c.name for c in self.claims]
        dupes = {n for n in claim_names if claim_names.count(n) > 1}
        if dupes:
            raise ValueError(f"suite {self.name!r}: duplicate "
                             f"claim name(s): {', '.join(sorted(dupes))}")
        known = set(names)
        for claim in self.claims:
            missing = sorted(set(claim.scenario_names()) - known)
            if missing:
                raise ValueError(
                    f"suite {self.name!r}: claim {claim.name!r} "
                    f"binds undeclared scenario(s): "
                    f"{', '.join(missing)}")

    def scenario(self, name: str) -> Scenario:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"no scenario named {name!r}")


K = TypeVar("K")


def run_scenarios(scenarios: Mapping[K, Scenario], *, jobs: int = 1,
                  cache: ResultCache | None = None,
                  progress: ProgressFn | None = None) \
        -> dict[K, CellOutcome]:
    """Simulate every scenario; outcomes come back under its key, in
    declaration order."""
    points = [lower_scenario(s) for s in scenarios.values()]
    report = run_campaign(points, jobs=jobs, cache=cache,
                          factory=scenario_design_point,
                          progress=progress)
    return dict(zip(scenarios, report.outcomes))


def run_study(scenarios: Mapping[K, Scenario], *, jobs: int = 1,
              cache: ResultCache | None = None) \
        -> dict[K, SimulationResult]:
    """A comparison study's results, keyed as declared.

    ``cache=None`` means ``$REPRO_CACHE_DIR`` (no cache when unset).
    Raises :class:`~repro.campaign.runner.CampaignError` naming every
    cell that failed: a study needs all of its cells.
    """
    if cache is None:
        cache = ResultCache.from_env()
    outcomes = run_scenarios(scenarios, jobs=jobs, cache=cache)
    CampaignReport(tuple(outcomes.values())).raise_failures()
    return {key: outcome.result for key, outcome in outcomes.items()}


def run_suite(suite: ClaimSuite, *, jobs: int = 1,
              cache: ResultCache | None = None,
              progress: ProgressFn | None = None) -> SuiteReport:
    """Simulate every scenario and evaluate every claim."""
    outcomes = run_scenarios({s.name: s for s in suite.scenarios},
                             jobs=jobs, cache=cache, progress=progress)
    results: dict[str, SimulationResult] = {}
    errors: dict[str, str] = {}
    for name, outcome in outcomes.items():
        if outcome.ok:
            results[name] = outcome.result
        else:
            errors[name] = outcome.error or "unknown error"

    def lookup(name: str) -> SimulationResult:
        if name in errors:
            raise ScenarioExecutionError(
                f"scenario {name!r} failed: {errors[name]}")
        try:
            return results[name]
        except KeyError:
            raise ScenarioExecutionError(
                f"unknown scenario {name!r}") from None

    verdicts = evaluate_claims(suite.claims, lookup)
    fingerprints = tuple((s.name, s.fingerprint())
                         for s in suite.scenarios)
    return SuiteReport(
        suite=suite.name, verdicts=verdicts,
        fingerprints=fingerprints, n_cells=len(outcomes),
        cached=sum(o.cached for o in outcomes.values()))
