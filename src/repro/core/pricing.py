"""Memoized pricing for the simulator core.

Profiling the campaign grid shows the simulator spends most of its
time *re-deriving prices*, not scheduling: every ``simulate()`` call
re-partitions the network, re-times every layer's GEMM sequence (three
times over -- once for the plan seconds, once for the prefetch
context, once for op emission), and re-prices identical collectives,
while all six design points share one device model and one device
count, so the answers are identical across most of the grid.

This module is the memo layer the core routes those derivations
through:

* :func:`cached_partition` / :func:`cached_migration` -- per-network
  partitioning and migration planning, keyed on the network's
  mutation ``version`` so a network edited after caching can never
  replay stale plans (networks are weakly referenced; test-local
  graphs do not pin memory);
* :func:`layer_times` -- per-layer (forward, backward) seconds for a
  (device, batch, strategy, n_devices) cell, shared by every design
  point with the same device model;
* :func:`layer_fwd_time` / :func:`layer_bwd_time` -- the pipeline
  stage-timing equivalents, keyed per layer;
* :func:`collective_time` -- ring-collective latency per
  (model, primitive, nbytes);
* :class:`MemoPricer` -- wraps a per-transfer DMA pricer with a
  size-keyed memo and, when the model provides one, a vectorized
  ``array`` variant for whole fetch lists;
* :func:`cached_cluster_cell` -- cross-instance memo for the cluster
  cost oracle, so four scheduling policies price one design's job
  classes with one set of ``simulate()`` calls.

Every cache is a pure memo: a hit returns exactly the value a fresh
computation would, so results do not depend on what the memos hold.
:func:`clear_caches` empties everything; the bench harness calls it
so cold timings measure simulation, not cache replay.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.telemetry.registry import NOOP, on_activation
from repro.training.backprop import TrainingStep, expand
from repro.training.parallel import (ParallelStrategy, PartitionedLayer,
                                     partition)
from repro.vmem.policy import MigrationPolicy, TensorPlan

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.accelerator.device import DeviceSpec
    from repro.core.metrics import SimulationResult
    from repro.core.system import CollectiveModel, SystemConfig
    from repro.dnn.graph import Network
    from repro.dnn.layers import Layer

#: Per-network memo store.  Weak keys: a network that dies releases
#: its cached plans with it.
_NET_CACHES: "WeakKeyDictionary[Network, dict]" = WeakKeyDictionary()

#: Every CollectiveModel carrying a per-instance time memo (stashed in
#: the instance ``__dict__`` under this attribute -- keying a global
#: dict on the model would hash its channel tuple on every lookup).
_COLLECTIVE_MEMO_ATTR = "_pricing_time_memo"
_COLLECTIVE_MODELS: list = []

#: (device, layer, batch) -> seconds, one dict per direction.
_LAYER_FWD: dict = {}
_LAYER_BWD: dict = {}
#: (device, layer, batch) -> (activation-grad, weight-grad) seconds.
_LAYER_BWD_SPLIT: dict = {}

#: (SystemConfig, job-class key) -> SimulationResult, shared across
#: cluster cost-oracle instances (one design is priced once, not once
#: per scheduling policy).
_CLUSTER_CELLS: dict = {}

#: Telemetry probes: one hit/miss counter pair per memo, rebound
#: between real series and :data:`NOOP` by the registry activation
#: hook so the lookup paths never test an enabled flag.
_MEMO_NAMES = ("partition", "migration", "layer-times", "layer-fwd",
               "layer-bwd", "layer-bwd-split", "collective", "dma",
               "cluster-cell")
_HITS: dict = dict.fromkeys(_MEMO_NAMES, NOOP)
_MISSES: dict = dict.fromkeys(_MEMO_NAMES, NOOP)


def _bind_probes(registry) -> None:
    for memo in _MEMO_NAMES:
        if registry is None:
            _HITS[memo] = _MISSES[memo] = NOOP
        else:
            _HITS[memo] = registry.counter(
                "repro_pricing_memo_hits_total",
                "pricing-memo lookups served from cache", memo=memo)
            _MISSES[memo] = registry.counter(
                "repro_pricing_memo_misses_total",
                "pricing-memo lookups computed fresh", memo=memo)


on_activation(_bind_probes)


def clear_caches() -> None:
    """Empty every pricing memo (cold-benchmark hygiene)."""
    _NET_CACHES.clear()
    for model in _COLLECTIVE_MODELS:
        model.__dict__[_COLLECTIVE_MEMO_ATTR].clear()
    _COLLECTIVE_MODELS.clear()
    _LAYER_FWD.clear()
    _LAYER_BWD.clear()
    _LAYER_BWD_SPLIT.clear()
    _CLUSTER_CELLS.clear()
    # The design-point registry memo lives with the factories; imported
    # lazily because design_points sits above this module in the layer
    # order.
    from repro.core.design_points import clear_design_point_cache
    clear_design_point_cache()


def _net_cache(net: "Network") -> dict:
    cache = _NET_CACHES.get(net)
    if cache is None:
        cache = _NET_CACHES[net] = {}
    return cache


def cached_partition(net: "Network", batch: int,
                     strategy: ParallelStrategy,
                     n_devices: int) -> list[PartitionedLayer]:
    """Memoized :func:`repro.training.parallel.partition`.

    Returns the cached list itself; callers treat it as read-only
    (every consumer immediately re-keys it into a dict).
    """
    key = ("partition", net.version, batch, strategy, n_devices)
    cache = _net_cache(net)
    if key not in cache:
        _MISSES["partition"].inc()
        cache[key] = partition(net, batch, strategy, n_devices)
    else:
        _HITS["partition"].inc()
    return cache[key]


def cached_migration(net: "Network", batch: int, virtualize: bool) \
        -> tuple[list[TensorPlan], TrainingStep]:
    """Memoized migration plan + forward/backward expansion.

    Returns ``(tensor_plans, training_step)`` for the default
    :class:`~repro.vmem.policy.MigrationPolicy` at this ``virtualize``
    setting -- the only policy shape ``plan_iteration`` builds.
    """
    key = ("migration", net.version, batch, virtualize)
    cache = _net_cache(net)
    if key not in cache:
        _MISSES["migration"].inc()
        plans = MigrationPolicy(virtualize=virtualize).plan(net, batch)
        cache[key] = (plans, expand(net, plans))
    else:
        _HITS["migration"].inc()
    return cache[key]


def layer_times(net: "Network", device: "DeviceSpec", batch: int,
                strategy: ParallelStrategy, n_devices: int) \
        -> dict[str, tuple[float, float]]:
    """Per-layer ``name -> (fwd_seconds, bwd_seconds)`` for one cell.

    Times every partitioned layer's forward and backward kernels once;
    the schedule builder, the plan-seconds walk, and the prefetch
    context all read from the same dict.  Keyed on the device spec, so
    design points sharing the baseline device share the entry.
    """
    parts = cached_partition(net, batch, strategy, n_devices)
    key = ("layer-times", net.version, device, batch, strategy,
           n_devices)
    cache = _net_cache(net)
    if key not in cache:
        _MISSES["layer-times"].inc()
        op_time = device.op_time
        cache[key] = {
            p.name: (op_time(p.fwd_gemms, p.fwd_stream_bytes),
                     op_time(p.bwd_gemms, p.fwd_stream_bytes))
            for p in parts}
    else:
        _HITS["layer-times"].inc()
    return cache[key]


def layer_fwd_time(device: "DeviceSpec", layer: "Layer",
                   batch: int) -> float:
    """Memoized :meth:`DeviceSpec.layer_fwd_time` (pipeline staging)."""
    key = (device, layer, batch)
    if key not in _LAYER_FWD:
        _MISSES["layer-fwd"].inc()
        _LAYER_FWD[key] = device.layer_fwd_time(layer, batch)
    else:
        _HITS["layer-fwd"].inc()
    return _LAYER_FWD[key]


def layer_bwd_time(device: "DeviceSpec", layer: "Layer",
                   batch: int) -> float:
    """Memoized :meth:`DeviceSpec.layer_bwd_time` (pipeline staging)."""
    key = (device, layer, batch)
    if key not in _LAYER_BWD:
        _MISSES["layer-bwd"].inc()
        _LAYER_BWD[key] = device.layer_bwd_time(layer, batch)
    else:
        _HITS["layer-bwd"].inc()
    return _LAYER_BWD[key]


def layer_bwd_split_time(device: "DeviceSpec", layer: "Layer",
                         batch: int) -> tuple[float, float]:
    """Memoized :meth:`DeviceSpec.layer_bwd_split_time`.

    The (activation-grad, weight-grad) pair feeding zero-bubble
    stage timing; sums to :func:`layer_bwd_time` up to float
    re-association.
    """
    key = (device, layer, batch)
    if key not in _LAYER_BWD_SPLIT:
        _MISSES["layer-bwd-split"].inc()
        _LAYER_BWD_SPLIT[key] = device.layer_bwd_split_time(layer,
                                                            batch)
    else:
        _HITS["layer-bwd-split"].inc()
    return _LAYER_BWD_SPLIT[key]


def _collective_memo(model: "CollectiveModel") -> dict:
    # Frozen dataclasses still have a __dict__; stashing the memo there
    # (via object.__setattr__) skips hashing the model's channel tuple
    # on every price lookup, which profiling shows dominates the cost
    # of a memo keyed (model, primitive, nbytes).
    memo = model.__dict__.get(_COLLECTIVE_MEMO_ATTR)
    if memo is None:
        memo = {}
        object.__setattr__(model, _COLLECTIVE_MEMO_ATTR, memo)
        _COLLECTIVE_MODELS.append(model)
    return memo


def collective_time(model: "CollectiveModel", primitive,
                    nbytes: int) -> float:
    """Memoized :meth:`CollectiveModel.time`."""
    memo = _collective_memo(model)
    key = (primitive, nbytes)
    if key not in memo:
        _MISSES["collective"].inc()
        memo[key] = model.time(primitive, nbytes)
    else:
        _HITS["collective"].inc()
    return memo[key]


def collective_pricer(model: "CollectiveModel") \
        -> Callable[[object, int], float]:
    """Bind one model's memoized ``time``.

    Returns a ``(primitive, nbytes) -> seconds`` callable; inner-loop
    emitters call it per op without re-fetching the instance memo
    each time.
    """
    memo = _collective_memo(model)
    time = model.time

    def priced(primitive, nbytes: int) -> float:
        key = (primitive, nbytes)
        if key not in memo:
            _MISSES["collective"].inc()
            memo[key] = time(primitive, nbytes)
        else:
            _HITS["collective"].inc()
        return memo[key]

    return priced


class MemoPricer:
    """A per-transfer DMA pricer with a size-keyed memo.

    Wraps the scalar pricing callable the plan derived; repeated sizes
    (every offload/prefetch pair, every pipeline stash) price once.
    ``array_fn``, when provided, prices a whole list of sizes through
    the model's vectorized variant -- elementwise identical to the
    scalar calls, just without the per-call Python overhead.
    """

    __slots__ = ("fn", "array_fn", "cache")

    def __init__(self, fn: Callable[[int], float],
                 array_fn: Callable | None = None) -> None:
        self.fn = fn
        self.array_fn = array_fn
        self.cache: dict[int, float] = {}

    def __call__(self, nbytes: int) -> float:
        cache = self.cache
        if nbytes not in cache:
            _MISSES["dma"].inc()
            cache[nbytes] = self.fn(nbytes)
        else:
            _HITS["dma"].inc()
        return cache[nbytes]

    def many(self, sizes: list[int]) -> list[float]:
        """Price a list of transfer sizes (vectorized when possible)."""
        if self.array_fn is not None and len(sizes) > 2:
            # The array variant recomputes every size regardless of
            # what the memo holds, so the whole batch counts as misses.
            _MISSES["dma"].inc(len(sizes))
            priced = self.array_fn(sizes)
            out = [float(x) for x in priced]
            self.cache.update(zip(sizes, out))
            return out
        return [self(n) for n in sizes]


def cached_cluster_cell(config: "SystemConfig", key: tuple,
                        thunk: Callable[[], "SimulationResult"]) \
        -> "SimulationResult":
    """Cross-oracle memo for cluster job pricing.

    ``key`` identifies the job class; together with the (hashable)
    design point it addresses one ``simulate()`` outcome shared by
    every scheduler policy comparing on that design.
    """
    full_key = (config, key)
    if full_key not in _CLUSTER_CELLS:
        _MISSES["cluster-cell"].inc()
        _CLUSTER_CELLS[full_key] = thunk()
    else:
        _HITS["cluster-cell"].inc()
    return _CLUSTER_CELLS[full_key]
