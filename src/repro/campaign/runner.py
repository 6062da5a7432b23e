"""The campaign runner: fan a grid of points across processes.

``run_campaign`` takes any iterable of :class:`CampaignPoint` and
returns a :class:`CampaignReport` with one :class:`CellOutcome` per
point, in input order.  Three properties the experiment layers rely on:

* **determinism** — the simulator is pure, so serial, pooled, and
  cache-replayed campaigns produce identical ``SimulationResult``
  values (asserted by ``tests/test_campaign.py``);
* **isolation** — one failing cell is reported in its outcome instead
  of killing the sweep; callers that need all cells call
  :meth:`CampaignReport.raise_failures`.  This extends to worker
  *death*: when a pool worker exits hard (OOM kill, segfault), every
  in-flight future fails with the same ``BrokenProcessPool``, so the
  runner retries each survivor alone in a fresh single-worker pool and
  only the cell that kills its private worker again is failed;
* **memoization** — with a :class:`ResultCache`, finished cells are
  replayed from disk and only misses are simulated.  Within one run,
  each distinct config is built once (:class:`BuiltConfigs`): its
  digest keys every cell that uses it, and the serial path simulates
  on that same object.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.campaign.cache import ResultCache
from repro.campaign.points import BuiltConfigs, CampaignPoint
from repro.core.design_points import design_point
from repro.core.metrics import SimulationResult
from repro.core.simulator import simulate
from repro.telemetry.registry import metrics_registry
from repro.telemetry.spans import span
from repro.training.parallel import ParallelStrategy

#: ``progress(outcome, done, total)`` called as each cell finishes.
ProgressFn = Callable[["CellOutcome", int, int], None]


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignReport.raise_failures`."""

    def __init__(self, failures: tuple["CellOutcome", ...]) -> None:
        lines = [f"{len(failures)} campaign cell(s) failed:"]
        lines += [f"  {o.point.name}/{o.point.network}"
                  f"/b{o.point.batch}/{o.point.strategy.value}: "
                  f"{o.error}" for o in failures]
        super().__init__("\n".join(lines))
        self.failures = failures


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one campaign point."""

    point: CampaignPoint
    result: SimulationResult | None
    error: str | None = None
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class CampaignReport:
    """All cell outcomes of one campaign, in input order."""

    outcomes: tuple[CellOutcome, ...]

    @property
    def failures(self) -> tuple[CellOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def cached_count(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def results(self) -> dict[tuple, SimulationResult]:
        """``point.key`` -> result for every successful cell."""
        return {o.point.key: o.result for o in self.outcomes if o.ok}

    def result(self, name: str, network: str, batch: int,
               strategy: ParallelStrategy) -> SimulationResult:
        """Look one cell up by its point key; raises on failed cells."""
        for outcome in self.outcomes:
            if outcome.point.key == (name, network, batch, strategy):
                if not outcome.ok:
                    raise CampaignError((outcome,))
                return outcome.result
        raise KeyError((name, network, batch, strategy))

    def raise_failures(self) -> "CampaignReport":
        if self.failures:
            raise CampaignError(self.failures)
        return self


def _simulate_cell(point: CampaignPoint, configs: BuiltConfigs,
                   with_telemetry: bool = False) \
        -> tuple[SimulationResult, float, dict | None]:
    """Run one cell on its config from ``configs`` (picklable).

    The serial path passes the run's own :class:`BuiltConfigs`, so a
    cell simulates on the config object its cache key digested; a pool
    worker unpickles a fresh one holding only the factory and builds
    the config itself.

    ``with_telemetry`` is the pool path's metric plumbing: the worker
    runs the cell under its own fresh registry and ships the snapshot
    back for the parent to merge (in input order, so merged totals
    are deterministic).  The serial path leaves it ``False`` -- the
    parent's own registry observes the cell directly.
    """
    registry = None
    if with_telemetry:
        from repro.telemetry.registry import (disable_metrics,
                                              enable_metrics)
        registry = enable_metrics(fresh=True)
    start = time.perf_counter()
    try:
        with span("cell", design=point.name, network=point.network):
            config = configs.get(point)
            if point.is_serving:
                # Imported lazily: repro.serving depends on repro.core.
                from repro.serving.server import simulate_serving
                result = simulate_serving(config, point.network,
                                          **dict(point.serving))
            elif point.is_cluster:
                # Imported lazily: repro.cluster depends on repro.core.
                from repro.cluster.simulator import simulate_cluster
                result = simulate_cluster(config, **dict(point.cluster))
            else:
                result = simulate(config, point.network, point.batch,
                                  point.strategy)
        elapsed = time.perf_counter() - start
        snapshot = registry.snapshot() if registry is not None else None
        return result, elapsed, snapshot
    finally:
        if with_telemetry:
            disable_metrics()


def _check_unique_keys(points: tuple[CampaignPoint, ...]) -> None:
    seen: dict[tuple, CampaignPoint] = {}
    for point in points:
        other = seen.setdefault(point.key, point)
        if other != point:
            raise ValueError(
                f"two distinct points share the key {point.key}; "
                f"give one a unique label")


def run_campaign(points: Iterable[CampaignPoint], *, jobs: int = 1,
                 cache: ResultCache | None = None,
                 factory=design_point,
                 progress: ProgressFn | None = None) -> CampaignReport:
    """Run every point, in parallel when ``jobs > 1``.

    ``factory`` maps a design name (plus overrides) to a
    ``SystemConfig``; pass a module-level callable so pool workers can
    import it.  Fresh successes are written back to ``cache``.
    """
    points = tuple(points)
    _check_unique_keys(points)
    total = len(points)
    done = 0
    outcomes: dict[int, CellOutcome] = {}
    factory_id = f"{factory.__module__}.{factory.__qualname__}"

    def record(index: int, outcome: CellOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    configs = BuiltConfigs(factory)
    keys: dict[int, str] = {}
    misses: list[int] = []
    for index, point in enumerate(points):
        if cache is not None:
            # The key carries a digest of the *built* config, so
            # results can never be replayed across configs the point
            # axes do not distinguish -- e.g. two factories baking
            # different prefetch policies.  A point whose config
            # cannot build is left uncached; the worker will surface
            # the error as the cell's outcome.
            try:
                description = point.describe(configs)
            except Exception:
                misses.append(index)
                continue
            key = cache.key(description, factory_id)
            keys[index] = key
            with span("cache:lookup", design=point.name,
                      network=point.network):
                hit = cache.get(key)
            if hit is not None:
                record(index, CellOutcome(point, hit, cached=True))
                continue
        misses.append(index)

    def finish(index: int, result: SimulationResult,
               elapsed: float) -> None:
        if cache is not None and index in keys:
            cache.put(keys[index], result)
        record(index, CellOutcome(points[index], result,
                                  elapsed=elapsed))

    def fail(index: int, exc: BaseException) -> None:
        error = "".join(traceback.format_exception_only(exc)).strip()
        record(index, CellOutcome(points[index], None, error=error))

    if jobs > 1 and len(misses) > 1:
        worker_telemetry = metrics_registry() is not None
        snapshots: dict[int, dict] = {}
        broken: list[int] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending = {pool.submit(_simulate_cell, points[i], configs,
                                   worker_telemetry): i
                       for i in misses}
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = pending.pop(future)
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        # A worker died; the executor fails *every*
                        # in-flight future with this same exception,
                        # so the guilty cell is unknown here.  Park
                        # the survivors and retry each alone below.
                        broken.append(index)
                    elif exc is not None:
                        fail(index, exc)
                    else:
                        result, elapsed, snapshot = future.result()
                        if snapshot is not None:
                            snapshots[index] = snapshot
                        finish(index, result, elapsed)
        # Recovery pass: each cell caught in a pool collapse re-runs
        # in its own fresh single-worker pool, so an innocent cell
        # still produces its result and only a cell that kills its
        # *private* worker again is charged with the death.
        for index in sorted(broken):
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    result, elapsed, snapshot = solo.submit(
                        _simulate_cell, points[index], configs,
                        worker_telemetry).result()
            except BrokenProcessPool:
                fail(index, RuntimeError(
                    f"worker process died while simulating cell "
                    f"{points[index].name}/{points[index].network}"))
            except Exception as exc:
                fail(index, exc)
            else:
                if snapshot is not None:
                    snapshots[index] = snapshot
                finish(index, result, elapsed)
        registry = metrics_registry()
        if registry is not None:
            # Merge in input order: counter sums are then the same
            # floats no matter which worker finished first.
            for index in sorted(snapshots):
                registry.merge_snapshot(snapshots[index])
    else:
        for index in misses:
            try:
                result, elapsed, _ = _simulate_cell(points[index],
                                                    configs)
            except Exception as exc:
                fail(index, exc)
            else:
                finish(index, result, elapsed)

    return CampaignReport(
        outcomes=tuple(outcomes[i] for i in range(total)))
