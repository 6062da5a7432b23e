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
  partitioning and training steps (the forward/backward orders with
  the migration policy's offload, prefetch and recompute sites, one
  per virtualization setting and shared by every batch), keyed on the
  network's mutation ``version`` so a network edited after caching
  can never replay stale plans (networks are weakly referenced;
  test-local graphs do not pin memory);
* the training iteration plans of
  :func:`repro.core.schedule.plan_iteration`, in the same per-network
  store, each carrying a private memo of the prefetch gate plans of
  the policies that read no prices (one per policy, window and
  stash) and of the op-table structures emitted from it (one per
  device, offload window and prefetch gate plan), which every design
  point sharing the structure re-prices, one price per distinct
  collective or DMA key;
* the pipeline plans of :func:`repro.pipeline.lowering.plan_pipeline`
  and their stage partitions per stage count, in the same store; each
  plan carries its price-blind gate plans and the op structures
  emitted from it (one per prefetch gate plan), re-priced per design
  the same way;
* one memo per inference network shape of
  :func:`repro.core.schedule.plan_inference` (network, strategy,
  device count, virtualization, and the batch under model
  parallelism), in the same store, holding the shape's streamed
  weights, price-blind gate plans and op structures, which every
  batch and design point of the shape prices, compute included;
* :func:`batch_latencies` -- the forward-only results of one design
  and network per batch size, shared by every serving latency model;
* :func:`layer_times` -- per-layer (forward, backward, weight-grad)
  seconds for a (device, batch, strategy, n_devices) cell, with or
  without the zero-bubble B/W split, shared by every design point
  with the same device model; a pipeline times its stages from the
  data-parallel single-device entry at its microbatch; each build
  times a distinct kernel shape once;
* :func:`collective_pricer` -- ring-collective latency per
  (model value, primitive, nbytes), so equal models of different
  design points share their prices;
* :class:`MemoPricer` -- wraps a per-transfer DMA pricer with a
  size-keyed memo;
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
from repro.vmem.policy import MigrationPolicy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.accelerator.device import DeviceSpec
    from repro.core.metrics import SimulationResult
    from repro.core.system import CollectiveModel, SystemConfig
    from repro.dnn.graph import Network

#: Per-network memo store.  Weak keys: a network that dies releases
#: its cached plans with it.
_NET_CACHES: "WeakKeyDictionary[Network, dict]" = WeakKeyDictionary()

#: Collective time memos, one per distinct CollectiveModel value:
#: design points that build equal models (DC-DLA and DC-DLA(O), say)
#: share one.  Each model object looks its memo up here once and keeps
#: it in its instance ``__dict__`` under this attribute, so a price
#: lookup never hashes the model's channel tuple.
_COLLECTIVE_MEMO_ATTR = "_pricing_time_memo"
_COLLECTIVE_MEMOS: dict = {}
#: Every model object holding a memo (to detach on :func:`clear_caches`).
_COLLECTIVE_MODELS: list = []

#: (SystemConfig, job-class key) -> SimulationResult, shared across
#: cluster cost-oracle instances (one design is priced once, not once
#: per scheduling policy).
_CLUSTER_CELLS: dict = {}

#: Telemetry probes: one hit/miss counter pair per memo, rebound
#: between real series and :data:`NOOP` by the registry activation
#: hook so the lookup paths never test an enabled flag.
_MEMO_NAMES = ("partition", "migration", "layer-times", "collective",
               "dma", "cluster-cell", "iteration-plan", "op-structure",
               "gate-plan", "pipeline-plan", "pipeline-partition",
               "inference-shape", "batch-latency")
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
        del model.__dict__[_COLLECTIVE_MEMO_ATTR]
    _COLLECTIVE_MODELS.clear()
    for memo in _COLLECTIVE_MEMOS.values():
        memo.clear()
    _COLLECTIVE_MEMOS.clear()
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


def _memoized(store: dict, key, memo: str, build: Callable):
    """``store[key]``, calling ``build()`` to fill it on first use.

    Counts the lookup on ``memo``'s hit/miss probes.  ``store`` is a
    per-network cache or a memo owned by an object in one (an
    iteration plan's structures), so :func:`clear_caches` drops it.
    """
    value = store.get(key)
    if value is None:
        _MISSES[memo].inc()
        value = store[key] = build()
    else:
        _HITS[memo].inc()
    return value


def cached_partition(net: "Network", batch: int,
                     strategy: ParallelStrategy,
                     n_devices: int) -> list[PartitionedLayer]:
    """Memoized :func:`repro.training.parallel.partition`.

    Returns the cached list itself; callers treat it as read-only
    (every consumer immediately re-keys it into a dict).
    """
    return _memoized(
        _net_cache(net), ("partition", net.version, batch, strategy,
                          n_devices), "partition",
        lambda: partition(net, batch, strategy, n_devices))


def cached_migration(net: "Network", virtualize: bool) -> TrainingStep:
    """Memoized training step of the default
    :class:`~repro.vmem.policy.MigrationPolicy` at this ``virtualize``
    setting (the only policy ``plan_iteration`` builds).

    The migration rule reads no batch, so the step is keyed without
    one: every batch of a network shares it.
    """
    policy = MigrationPolicy(virtualize=virtualize)
    return _memoized(_net_cache(net), ("migration", net.version, virtualize),
                     "migration", lambda: expand(net, policy))


def layer_times(net: "Network", device: "DeviceSpec", batch: int,
                strategy: ParallelStrategy, n_devices: int,
                split: bool = False) \
        -> dict[str, tuple[float, float, float]]:
    """Per-layer ``name -> (fwd, bwd, wgrad)`` seconds for one cell.

    Without ``split`` the whole backward is ``bwd`` and ``wgrad`` is
    zero.  With it, the backward splits as a zero-bubble pipeline runs
    it: ``bwd`` is the activation-grad (B) part, the even GEMMs of the
    (dX, dW) interleave of :func:`~repro.dnn.shapes.grad_gemms`, and
    ``wgrad`` the deferrable weight-grad (W) part, the odd ones; a
    streaming backward has no W part.

    Times each distinct (GEMMs, stream bytes) kernel of the partition
    once, so layers of one shape share their timing; the schedule
    builders, the plan-seconds walks, and the prefetch contexts all
    read from the same dict.  Keyed on the device spec, so design
    points sharing the baseline device share the entry.
    """
    def build() -> dict[str, tuple[float, float, float]]:
        timed: dict[tuple, float] = {}

        def op_time(gemms, stream_bytes: int) -> float:
            key = (gemms, stream_bytes)
            seconds = timed.get(key)
            if seconds is None:
                seconds = timed[key] = device.op_time(gemms, stream_bytes)
            return seconds

        times = {}
        for p in cached_partition(net, batch, strategy, n_devices):
            stream = p.fwd_stream_bytes
            if split:
                bwd = op_time(p.bwd_gemms[0::2], stream)
                wgrad = op_time(p.bwd_gemms[1::2], 0)
            else:
                bwd, wgrad = op_time(p.bwd_gemms, stream), 0.0
            times[p.name] = (op_time(p.fwd_gemms, stream), bwd, wgrad)
        return times

    return _memoized(
        _net_cache(net), ("layer-times", net.version, device, batch,
                          strategy, n_devices, split), "layer-times",
        build)


def _collective_memo(model: "CollectiveModel") -> dict:
    # Frozen dataclasses still have a __dict__; stashing the memo there
    # (via object.__setattr__) skips hashing the model's channel tuple
    # on every price lookup, which profiling shows dominates the cost
    # of a memo keyed (model, primitive, nbytes).  The model is hashed
    # once per object, to find the memo of its value.
    memo = model.__dict__.get(_COLLECTIVE_MEMO_ATTR)
    if memo is None:
        memo = _COLLECTIVE_MEMOS.setdefault(model, {})
        object.__setattr__(model, _COLLECTIVE_MEMO_ATTR, memo)
        _COLLECTIVE_MODELS.append(model)
    return memo


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
    """

    __slots__ = ("fn", "cache")

    def __init__(self, fn: Callable[[int], float]) -> None:
        self.fn = fn
        self.cache: dict[int, float] = {}

    def __call__(self, nbytes: int) -> float:
        cache = self.cache
        if nbytes not in cache:
            _MISSES["dma"].inc()
            cache[nbytes] = self.fn(nbytes)
        else:
            _HITS["dma"].inc()
        return cache[nbytes]


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


def batch_latencies(net: "Network", config: "SystemConfig") \
        -> "dict[int, SimulationResult]":
    """The batch -> forward-only result memo of one design and network.

    Shared by every serving latency model of the pair
    (:class:`repro.serving.server.BatchLatencyModel`), so a batch size
    is simulated once per design and network, not once per model.
    """
    return _memoized(_net_cache(net),
                     ("batch-latency", net.version, config),
                     "batch-latency", dict)
