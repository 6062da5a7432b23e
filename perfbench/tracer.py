"""Outside-in tracer: spans around calls into the program's layers.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces each
public function named in :data:`TARGETS` with a timing wrapper, in its
defining module and in every ``repro`` module that imported it by
name, and replaces methods on their classes; :meth:`Tracer.uninstall`
puts the originals back.  Wrappers keep ``__module__`` and
``__qualname__`` (``functools.wraps``), so a wrapped campaign factory
hashes into the same cache key as the original.

A span records its layer, start, end, parent span and the campaign
cell in progress.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the union of its children's intervals,
so the self times of one pass add up to the pass's wall-clock.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: The root layer: the benchmark's own pass loop.
ROOT_LAYER = "bench"


def _result_len(args, result) -> int:
    return len(result)


def _first_arg_len(args, result) -> int:
    return len(args[0])


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``path`` is ``module:function`` or
    ``module:Class.method``; ``items`` counts work per call."""

    layer: str
    path: str
    items: Callable | None = None


TARGETS: tuple[Target, ...] = (
    Target("dnn.build", "repro.dnn.registry:build_network"),
    Target("dnn.build", "repro.dnn.registry:decode_network"),
    Target("core.design_point", "repro.core.design_points:design_point"),
    Target("core.design_point",
           "repro.scenarios.lowering:scenario_design_point"),
    Target("core.simulate", "repro.core.simulator:simulate"),
    Target("core.plan", "repro.core.schedule:plan_iteration"),
    Target("core.plan", "repro.core.schedule:plan_inference"),
    Target("core.price", "repro.core.schedule:iteration_pricer"),
    Target("core.price", "repro.core.schedule:inference_pricer"),
    Target("core.price", "repro.pipeline.lowering:pipeline_pricer"),
    Target("vmem.prefetch_plan",
           "repro.core.schedule:plan_training_prefetch"),
    Target("vmem.prefetch_plan",
           "repro.core.schedule:plan_inference_prefetch"),
    Target("vmem.prefetch_plan",
           "repro.pipeline.lowering:plan_pipeline_prefetch"),
    Target("vmem.collect", "repro.vmem.prefetch:collect_prefetch_stats"),
    Target("core.emit", "repro.core.schedule:build_iteration_ops",
           _result_len),
    Target("core.emit", "repro.core.schedule:build_inference_ops",
           _result_len),
    Target("core.emit", "repro.pipeline.lowering:build_pipeline_ops",
           _result_len),
    Target("core.schedule", "repro.core.optable:schedule_ops",
           _first_arg_len),
    Target("pipeline.plan", "repro.pipeline.lowering:plan_pipeline"),
    Target("pipeline.search", "repro.pipeline.schedules:build_schedule"),
    Target("pipeline.stats", "repro.pipeline.lowering:pipeline_stats"),
    Target("serving", "repro.serving.server:simulate_serving"),
    Target("cluster", "repro.cluster.simulator:simulate_cluster"),
    Target("faults", "repro.faults.lowering:active_fault_model"),
    Target("faults", "repro.faults.lowering:degraded_config"),
    Target("faults", "repro.faults.lowering:healthy_config"),
    Target("faults", "repro.faults.lowering:iteration_fault_stats"),
    Target("faults", "repro.faults.lowering:record_fault_stats"),
    Target("campaign.key", "repro.campaign.points:CampaignPoint.describe"),
    Target("campaign.key", "repro.campaign.cache:ResultCache.key"),
    Target("campaign.cache_get", "repro.campaign.cache:ResultCache.get"),
    Target("campaign.cache_put", "repro.campaign.cache:ResultCache.put"),
    Target("campaign.run", "repro.campaign.runner:run_campaign"),
    Target("core.metrics.encode",
           "repro.core.metrics:SimulationResult.to_dict"),
    Target("core.metrics.decode",
           "repro.core.metrics:SimulationResult.from_dict"),
    Target("scenarios.lower", "repro.scenarios.lowering:lower_scenario"),
    Target("scenarios.fingerprint",
           "repro.scenarios.dsl:Scenario.fingerprint"),
    Target("scenarios.evaluate", "repro.scenarios.claims:evaluate_claims"),
    Target("scenarios.render", "repro.scenarios.verdict:render_json"),
    Target("scenarios.run", "repro.scenarios.runner:run_suite"),
)

#: Where the cell in progress is announced: every campaign cell builds
#: its config through this method, first for its cache key, then to run.
CELL_HOOK = "repro.campaign.points:CampaignPoint.build_config"

#: Program telemetry counters read during traced passes only.
COUNTERS = ("repro_pricing_memo_hits_total",
            "repro_pricing_memo_misses_total",
            "repro_serving_requests_total",
            "repro_cluster_events_total")


@dataclass(slots=True)
class Span:
    layer: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    cell: str | None
    pass_index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for item in spans:
        if item.parent >= 0:
            children[item.parent].append((item.start, item.end))
    out = []
    for index, item in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, item.start), min(end, item.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(item.duration - covered)
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same layer (recursive
    calls such as a fault twin's ``simulate`` count once)."""
    flags = []
    for item in spans:
        parent = item.parent
        while parent >= 0 and spans[parent].layer != item.layer:
            parent = spans[parent].parent
        flags.append(parent < 0)
    return flags


@dataclass
class LayerStats:
    self_s: float = 0.0
    inclusive_s: float = 0.0
    calls: int = 0
    items: int = 0


def layer_stats(spans, weights=None, items=None) -> dict[str, LayerStats]:
    """Per-layer self time, inclusive time of outermost calls, call
    count and work items.  ``weights[i]`` scales span ``i``'s times
    (the speed factor of its pass)."""
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    selfs = self_times(spans)
    outer = outermost(spans)
    for index, item in enumerate(spans):
        weight = 1.0 if weights is None else weights[index]
        entry = stats[item.layer]
        entry.self_s += selfs[index] * weight
        if outer[index]:
            entry.inclusive_s += item.duration * weight
            entry.calls += 1
        if items is not None:
            entry.items += items.get(index, 0)
    return dict(stats)


class Tracer:
    """Records spans across one or more traced passes."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        #: span index -> work items (ops emitted or scheduled).
        self.items: dict[int, int] = {}
        #: One dict of counter totals per traced pass.
        self.counters: list[dict[str, float]] = []
        #: Targets that no longer resolve, by path.
        self.missing: list[str] = []
        self.cell: str | None = None
        self.origin = time.perf_counter()
        self._stack: list[int] = []
        self._pass = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------

    def _wrap(self, layer: str, fn, items=None):
        spans = self.spans
        stack = self._stack
        counts = self.items
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(layer, start, end, parent, self.cell,
                                    self._pass)
            if items is not None:
                counts[index] = items(args, result)
            return result

        return traced

    def _cell_hook(self, fn, cell_of):
        @functools.wraps(fn)
        def announce(point, *args, **kwargs):
            self.cell = cell_of(point)
            return fn(point, *args, **kwargs)

        return announce

    @staticmethod
    def _resolve(path: str):
        module_name, _, attr = path.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            return owner, method, owner.__dict__[method]
        return module, attr, getattr(module, attr)

    def install(self, cell_of: Callable | None = None) -> None:
        """Wrap every target; unresolvable ones go to :attr:`missing`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        functions: dict[int, tuple[object, object]] = {}
        hooks = [(CELL_HOOK, None)] if cell_of is not None else []
        for path, target in hooks + [(t.path, t) for t in self.targets]:
            try:
                owner, name, raw = self._resolve(path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(path)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(
                        target.layer, raw.__func__, target.items))
                elif target is None:
                    wrapped = self._cell_hook(raw, cell_of)
                else:
                    wrapped = self._wrap(target.layer, raw, target.items)
                setattr(owner, name, wrapped)
                self._patches.append((owner, name, raw))
            else:
                functions[id(raw)] = (raw, self._wrap(target.layer, raw,
                                                      target.items))
        for module in _program_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    setattr(module, name, entry[1])
                    self._patches.append((module, name, value))

    def uninstall(self) -> None:
        """Put every original back, including copies a module imported
        from a wrapped module while tracing was on."""
        originals = {id(getattr(owner, name)): raw
                     for owner, name, raw in self._patches
                     if not isinstance(owner, type)}
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches = []
        for module in _program_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                raw = originals.get(id(value))
                if raw is not None:
                    setattr(module, name, raw)

    # -- passes ------------------------------------------------------

    def begin_pass(self) -> None:
        """Open a pass: fresh program counters, a root span."""
        from repro.telemetry.registry import enable_metrics

        self._pass += 1
        self.cell = None
        enable_metrics(fresh=True)
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._root_start = time.perf_counter()

    def end_pass(self) -> None:
        from repro.telemetry.registry import (disable_metrics,
                                              metrics_registry)

        end = time.perf_counter()
        index = self._stack.pop()
        if self._stack:
            raise RuntimeError("unbalanced spans at the end of a pass")
        self.spans[index] = Span(ROOT_LAYER, self._root_start, end, -1,
                                 None, self._pass)
        snapshot = metrics_registry().snapshot()
        disable_metrics()
        totals = dict.fromkeys(COUNTERS, 0.0)
        for entry in snapshot["counters"]:
            if entry["name"] in totals:
                totals[entry["name"]] += entry["value"]
        self.counters.append(totals)

    @property
    def passes(self) -> int:
        return self._pass + 1

    def chrome_trace(self, passes: int) -> dict:
        """The spans of the first ``passes`` passes as Chrome trace
        ``X`` events (opens in Perfetto); times in microseconds since
        the tracer started."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "perfbench"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "host wall-clock (outside-in spans)"}},
        ]
        for item in self.spans:
            if item.pass_index >= passes:
                break
            parent = self.spans[item.parent].layer if item.parent >= 0 \
                else ""
            events.append({
                "name": item.layer, "cat": "perfbench", "ph": "X",
                "ts": (item.start - self.origin) * 1e6,
                "dur": item.duration * 1e6, "pid": 0, "tid": 0,
                "args": {"cell": item.cell or "", "parent": parent,
                         "pass": item.pass_index}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _program_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
