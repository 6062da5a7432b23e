"""Build the op lists the timeline scheduler runs: one training
iteration, or one forward-only (inference) batch.

This is where the paper's three latency components meet: forward and
backward computation on the PE array, offload/prefetch DMAs on the
virtualization channel (with vDNN's pinned-buffer back-pressure and
bounded prefetch lookahead), and collective synchronization on the ring
networks.  The resulting :class:`~repro.core.optable.OpTable` encodes
every overlap opportunity and every stall the design point implies.

Every emitter fills an :class:`_OpStructure`, which prices its
collective and DMA durations per design point; training and inference
share one forward emitter.  Design points that differ only in their
interconnect and memory pool emit the same training op DAG, so
:func:`build_iteration_ops` emits each DAG once per iteration plan and
gives every design its own priced table, which shares the
structure's other columns, as
:func:`repro.pipeline.lowering.build_pipeline_ops` does for pipelines.
:func:`build_inference_ops` emits each forward-only DAG once per
network shape, and also prices its compute durations per cell, so
every batch of a data-parallel shape shares it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.core import pricing
from repro.core.optable import OpTable
from repro.core.system import SystemConfig
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network, weight_owners
from repro.dnn.layers import LayerKind
from repro.training.backprop import TrainingStep
from repro.training.parallel import ParallelStrategy, PartitionedLayer
from repro.vmem.prefetch import (ON_DEMAND, FetchIssue, FetchSite,
                                 PrefetchContext, PrefetchSchedule,
                                 WasteFetch, _index_prefetches,
                                 prefetch_policy)


@dataclass(frozen=True)
class IterationPlan:
    """Everything needed to schedule (and introspect) one iteration."""

    net: Network
    batch: int
    strategy: ParallelStrategy
    parts: dict[str, PartitionedLayer]
    step: TrainingStep
    #: producer layer -> per-device shard bytes migrated (0 if resident).
    migrated_shards: dict[str, int]
    #: Derived from this plan only: its byte totals, the gate plans
    #: of policies that read no prices (see :func:`_plan_fetches`),
    #: and its emitted op structures (see :func:`build_iteration_ops`).
    #: Never copied: ``dataclasses.replace`` starts an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def offload_bytes_per_device(self) -> int:
        return sum(self.migrated_shards.values())

    @property
    def round_trip_bytes_per_device(self) -> int:
        return 2 * self.offload_bytes_per_device

    @property
    def sync_bytes_per_iteration(self) -> int:
        total = 0
        for part in self.parts.values():
            for sync in (part.fwd_sync, part.bwd_sync):
                if sync is not None:
                    total += sync.nbytes
        return total


def _plan_bytes(plan: IterationPlan) -> tuple[int, int, int]:
    """Per-device offload bytes, training footprint and per-iteration
    sync bytes of a plan.

    Weak scaling: every worker trains a full ``batch`` (data-parallel)
    or materializes full gathered feature maps (model-parallel), so the
    per-device footprint is the full-batch footprint either way.  All
    three are the same for every design point sharing the plan, so
    they are summed once and kept on it.
    """
    cached = plan._memo.get("bytes")
    if cached is None:
        cached = plan._memo["bytes"] = (
            plan.offload_bytes_per_device,
            plan.net.training_footprint_bytes(plan.batch),
            plan.sync_bytes_per_iteration)
    return cached


def plan_iteration(net: Network, config: SystemConfig, batch: int,
                   strategy: ParallelStrategy) -> IterationPlan:
    """Partition the network and take its training step.

    Memoized per network: every design point with the same device
    count and virtualization setting shares one plan object (and with
    it the op structures emitted from it), and every batch shares the
    training step (:func:`repro.core.pricing.cached_migration`).
    """
    n_devices = config.n_devices
    virtualizes = config.virtualizes
    return pricing._memoized(
        pricing._net_cache(net),
        ("iteration-plan", net.version, batch, strategy, n_devices,
         virtualizes), "iteration-plan",
        lambda: iteration_plan(
            net, batch, strategy,
            pricing.cached_partition(net, batch, strategy, n_devices),
            pricing.cached_migration(net, virtualizes)))


def iteration_plan(net: Network, batch: int, strategy: ParallelStrategy,
                   parts: Iterable[PartitionedLayer],
                   step: TrainingStep) -> IterationPlan:
    """The plan of one partition and training step, not memoized:
    each tensor the step offloads migrates its per-device output
    shard."""
    by_name = {part.name: part for part in parts}
    return IterationPlan(
        net=net, batch=batch, strategy=strategy, parts=by_name, step=step,
        migrated_shards={producer: by_name[producer].out_shard_bytes
                         for producer in step.offloaded})


def contention_fraction(compute_seconds: float,
                        comm_seconds: float) -> float:
    """Share of the iteration during which migration DMAs contend.

    Collectives occupy the shared links for roughly ``comm_seconds``
    of a ``compute_seconds``-long iteration, so a DMA issued at an
    arbitrary point is contended with that probability.  Both terms
    come from the plan (not a schedule), so every policy of one cell
    prices its transfers identically -- the clairvoyant oracle's
    dominance is a scheduling property, never a pricing artifact.
    """
    if compute_seconds <= 0.0:
        return 1.0
    return min(1.0, comm_seconds / compute_seconds)


def vmem_pricer(config: SystemConfig,
                seconds: Callable[[], tuple[float, float]]) \
        -> pricing.MemoPricer:
    """The DMA pricing the active prefetch policy implies.

    The legacy ``on-demand`` baseline keeps the paper's conservative
    always-contended pricing (its schedules must stay byte-identical
    to the seed's), so it never calls ``seconds``; the policy engine
    prices with the plan's measured contention fraction instead, from
    the ``(compute, collective)`` seconds that ``seconds()`` walks.
    """
    fraction = (1.0 if config.prefetch_policy == ON_DEMAND
                else contention_fraction(*seconds()))
    return pricing.MemoPricer(
        lambda nbytes: config.vmem.transfer_time(nbytes, fraction))


def _iteration_seconds(plan: IterationPlan,
                       config: SystemConfig) -> tuple[float, float]:
    """(compute, collective) seconds of one training iteration plan."""
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    collective = pricing.collective_pricer(config.collectives)
    compute = 0.0
    comm = 0.0
    for name in plan.step.fwd_order:
        if plan.net.layer(name).kind is LayerKind.INPUT:
            continue
        part = plan.parts[name]
        fwd_s, bwd_s, _ = times[name]
        compute += fwd_s
        compute += bwd_s
        for sync in (part.fwd_sync, part.bwd_sync):
            if sync is not None:
                comm += collective(sync.primitive, sync.nbytes)
    return compute, comm


def iteration_pricer(plan: IterationPlan,
                     config: SystemConfig) -> pricing.MemoPricer:
    """The migration-DMA pricer of one training iteration."""
    return vmem_pricer(config, lambda: _iteration_seconds(plan, config))


#: One DMA channel's fetch problem: the step-second estimates of its
#: consuming schedule, and its fetch sites in use order.
FetchChannel = tuple[tuple[float, ...], tuple[FetchSite, ...]]


def _plan_fetches(memo: dict, config: SystemConfig,
                  pricer: Callable[[], pricing.MemoPricer],
                  channels: Callable[[], Iterable[FetchChannel]]) \
        -> tuple[PrefetchSchedule, ...]:
    """Run the configured prefetch policy over a plan's fetch sites:
    one schedule per channel ``channels()`` lists, each channel with a
    DMA engine of its own, its sites' transfers priced by ``pricer()``.

    A policy that reads no prices (every one but ``cost-model``) plans
    the same schedules for every design point sharing the plan, so
    they are planned once and kept in the plan's ``memo`` under the
    policy, window and stash; ``cost-model`` plans on every call, from
    its own design point's prices.  ``channels`` and ``pricer`` run
    only when planning, so a memo hit walks and prices nothing.
    """
    policy = prefetch_policy(config.prefetch_policy)

    def build() -> tuple[PrefetchSchedule, ...]:
        fetch_pricer = pricer()
        schedules = []
        for step_seconds, sites in channels():
            schedules.append(policy.plan(PrefetchContext(
                n_steps=len(step_seconds), sites=sites,
                step_seconds=step_seconds,
                fetch_seconds=tuple(fetch_pricer(site.nbytes)
                                    for site in sites),
                window=config.prefetch_window,
                stash=config.prefetch_stash)))
        return tuple(schedules)

    if policy.reads_costs:
        return build()
    return pricing._memoized(
        memo, ("gate-plan", policy.name, config.prefetch_window,
               config.prefetch_stash), "gate-plan", build)


def plan_training_prefetch(plan: IterationPlan, config: SystemConfig,
                           pricer: pricing.MemoPricer | None
                           = None) -> PrefetchSchedule:
    """Run the configured prefetch policy over a training iteration
    (see :func:`_plan_fetches`): one channel, whose steps are the
    backward steps and whose sites are the plan's prefetch sites in
    backward order."""
    def channels() -> tuple[FetchChannel]:
        times = pricing.layer_times(plan.net, config.device, plan.batch,
                                    plan.strategy, config.n_devices)
        steps = plan.step.bwd_order
        sites = tuple(
            FetchSite(producer=producer, use_step=step,
                      nbytes=plan.migrated_shards[producer])
            for step, name in enumerate(steps)
            for producer in plan.step.prefetch_sites.get(name, ()))
        return ((tuple(times[name][1] for name in steps), sites),)

    return _plan_fetches(
        plan._memo, config,
        lambda: iteration_pricer(plan, config) if pricer is None
        else pricer, channels)[0]


@dataclass(frozen=True)
class InferencePlan:
    """One forward-only (serving) batch on a design point.

    Inference has no backward pass and therefore no feature-map
    offload; what stresses the memory system instead is *weight
    streaming*: a consolidated serving node hosts many tenant models,
    so a request batch finds its model's weights cold in the backing
    store and must fetch them over the virtualization channel.
    Mirroring the paper's stress-test methodology (every eligible
    tensor migrates regardless of fit, Section IV), every weighted
    layer streams its weights; only designs without a migration channel
    (the oracle) keep weights resident.
    """

    net: Network
    batch: int
    strategy: ParallelStrategy
    parts: dict[str, PartitionedLayer]
    #: layer -> per-device weight bytes fetched from the backing store
    #: (tied ``weight_group`` buffers are fetched once, at the first
    #: member).
    streamed_weights: dict[str, int]
    #: Shared by every plan of one network shape (see
    #: :func:`plan_inference`): the streamed weights, the gate plans of
    #: policies that read no prices (see :func:`_plan_fetches`), and
    #: the op structures emitted from it (see
    #: :func:`build_inference_ops`).
    #: Never copied: ``dataclasses.replace`` starts an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def weight_stream_bytes_per_device(self) -> int:
        return sum(self.streamed_weights.values())

    @property
    def sync_bytes_per_iteration(self) -> int:
        total = 0
        for part in self.parts.values():
            if part.fwd_sync is not None:
                total += part.fwd_sync.nbytes
        return total


def plan_inference(net: Network, config: SystemConfig, batch: int,
                   strategy: ParallelStrategy) -> InferencePlan:
    """Partition the network and derive the weight-streaming plan.

    Apart from its compute times, a forward-only batch depends only on
    its network shape: the network, strategy, device count and
    virtualization setting, plus the batch under model parallelism,
    whose all-gathers carry batch-sized bytes.  Every plan of one
    shape carries the same memo, kept in the network's pricing cache,
    so the streamed weights, gate plans and op structures are derived
    once per shape and shared by every batch and design point.
    """
    if strategy is ParallelStrategy.PIPELINE:
        raise ValueError(
            "inference serving replicates the model per device; "
            "pipeline-parallel inference is not modeled")
    n_devices = config.n_devices
    virtualizes = config.virtualizes

    def shape() -> dict:
        streamed: dict[str, int] = {}
        if virtualizes:
            for layer in weight_owners(net.layers):
                nbytes = layer.weight_bytes
                if strategy is ParallelStrategy.MODEL:
                    # Model-parallel shards each weight matrix N-wise.
                    nbytes = max(1, nbytes // n_devices)
                streamed[layer.name] = nbytes
        return {"streamed": streamed}

    memo = pricing._memoized(
        pricing._net_cache(net),
        ("inference-shape", net.version, strategy, n_devices, virtualizes,
         batch if strategy is ParallelStrategy.MODEL else None),
        "inference-shape", shape)
    plan = InferencePlan(
        net=net, batch=batch, strategy=strategy,
        parts={p.name: p for p in pricing.cached_partition(
            net, batch, strategy, n_devices)},
        streamed_weights=memo["streamed"])
    object.__setattr__(plan, "_memo", memo)
    return plan


def _inference_seconds(plan: InferencePlan,
                       config: SystemConfig) -> tuple[float, float]:
    """(compute, collective) seconds of one forward-only batch plan."""
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    collective = pricing.collective_pricer(config.collectives)
    compute = 0.0
    comm = 0.0
    for name in plan.net.layer_names:
        if plan.net.layer(name).kind is LayerKind.INPUT:
            continue
        part = plan.parts[name]
        compute += times[name][0]
        if part.fwd_sync is not None:
            comm += collective(part.fwd_sync.primitive,
                               part.fwd_sync.nbytes)
    return compute, comm


def inference_pricer(plan: InferencePlan,
                     config: SystemConfig) -> pricing.MemoPricer:
    """The weight-streaming DMA pricer of one inference batch."""
    return vmem_pricer(config, lambda: _inference_seconds(plan, config))


def plan_inference_prefetch(plan: InferencePlan, config: SystemConfig,
                            pricer: pricing.MemoPricer | None
                            = None) -> PrefetchSchedule:
    """Run the configured prefetch policy over the weight stream (see
    :func:`_plan_fetches`): one channel, whose steps are the forward
    computes of the non-input layers and whose sites are the streamed
    weights, each used by its own layer's step.  Price-blind policies
    plan once per network shape."""
    def channels() -> tuple[FetchChannel]:
        times = pricing.layer_times(plan.net, config.device, plan.batch,
                                    plan.strategy, config.n_devices)
        step_seconds = []
        sites = []
        for name in plan.net.layer_names:
            if plan.net.layer(name).kind is LayerKind.INPUT:
                continue
            if name in plan.streamed_weights:
                sites.append(FetchSite(
                    producer=name, use_step=len(step_seconds),
                    nbytes=plan.streamed_weights[name]))
            step_seconds.append(times[name][0])
        return ((tuple(step_seconds), tuple(sites)),)

    return _plan_fetches(
        plan._memo, config,
        lambda: inference_pricer(plan, config) if pricer is None
        else pricer, channels)[0]


def build_inference_ops(plan: InferencePlan, config: SystemConfig,
                        prefetch: PrefetchSchedule | None = None,
                        pricer: pricing.MemoPricer | None = None) \
        -> OpTable:
    """Emit one forward-only batch's ops in issue order: the training
    forward pass with each streamed weight fetched before its layer.

    Weight fetches ride the prefetch DMA engine, gated per the active
    prefetch policy (the legacy bounded lookahead under ``on-demand``),
    so a fast backing store hides them behind compute and a slow one
    exposes them -- the serving-time memory wall.

    The op structure is emitted once per network shape and prefetch
    gate plan, and kept in the plan's shape memo (inference offloads
    nothing, so the offload window plays no part); every call returns
    a new table with this cell's compute times and its collective and
    DMA prices.
    """
    if pricer is None:
        pricer = inference_pricer(plan, config)
    if prefetch is None:
        prefetch = plan_inference_prefetch(plan, config, pricer)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    key = ("op-structure",
           tuple(issue.gate_step for issue in prefetch.issues),
           prefetch.waste)
    structure = pricing._memoized(
        plan._memo, key, "op-structure",
        lambda: _emit_inference(plan, config, prefetch, times))
    return structure.priced(pricing.collective_pricer(config.collectives),
                            pricer, times)


def _emit_inference(plan: InferencePlan, config: SystemConfig,
                    prefetch: PrefetchSchedule, times: dict) \
        -> _OpStructure:
    """Emit one forward-only batch's op structure, its forward compute
    ops priced per cell (see :class:`_OpStructure`)."""
    # Site k is the k-th streamed layer in layer order.
    waste_before = prefetch.waste_before()
    fetched = {name: (prefetch.issues[site], waste_before.get(site, ()),
                      nbytes)
               for site, (name, nbytes)
               in enumerate(plan.streamed_weights.items())}
    structure = _OpStructure()
    fwd_ready, _ = _emit_forward(structure, plan.net, plan.parts, times,
                                 config.offload_window, fetched, {}, {})
    structure.compute = {name: uid for name, uid in fwd_ready.items()
                         if uid is not None}
    return structure


class _OpStructure:
    """One emitted op DAG (training, inference or pipeline) and the
    keys that price it.

    Ops added through :meth:`sync`, :meth:`transfer` and
    :meth:`fetch` hold 0.0 until :meth:`priced` fills them per design
    point.  They are grouped as they are added: ``comm`` maps each
    distinct ``(primitive, nbytes)`` to its collectives' uids and
    ``dma`` each distinct byte count to its DMAs' uids, both in uid
    order.  Compute ops go straight into ``table`` with final
    durations, except those ``compute`` maps a layer to (each layer's
    forward compute op in an inference structure, shared by every
    batch of a network shape): :meth:`priced` gives them the cell's
    forward times.  Every priced table shares the structural columns
    and the prefetch index
    :func:`~repro.vmem.prefetch.collect_prefetch_stats` reads, built
    once before the first priced table.
    """

    __slots__ = ("table", "comm", "dma", "compute")

    def __init__(self) -> None:
        self.table = OpTable()
        self.comm: dict[tuple[object, int], list[int]] = {}
        self.dma: dict[int, list[int]] = {}
        self.compute: dict[str, int] = {}

    def sync(self, primitive, nbytes: int, deps: list[int], tag: str,
             channel: int = 0) -> int:
        """Add a collective, priced per design point."""
        uid = self.table.add(EngineKind.COMM, 0.0, deps, tag=tag,
                             nbytes=nbytes, channel=channel)
        self.comm.setdefault((primitive, nbytes), []).append(uid)
        return uid

    def transfer(self, engine: EngineKind, nbytes: int, deps: list[int],
                 tag: str, channel: int = 0) -> int:
        """Add a DMA on ``engine``, priced per design point."""
        uid = self.table.add(engine, 0.0, deps, tag=tag, nbytes=nbytes,
                             channel=channel)
        self.dma.setdefault(nbytes, []).append(uid)
        return uid

    def fetch(self, issue: FetchIssue, waste: tuple[WasteFetch, ...],
              steps: list[int], nbytes: int, deps: list[int], tag: str,
              channel: int = 0) -> int:
        """Add one fetch site's DMA-in, after the ``waste`` DMAs its
        policy issued before it.

        Each DMA waits on the compute op in ``steps`` its gate step
        names (on none when ungated); the fetch also waits on ``deps``.
        """
        for item in waste:
            gate = [] if item.gate_step is None else [steps[item.gate_step]]
            self.transfer(EngineKind.DMA_IN, item.nbytes, gate,
                          f"waste:{item.label}", channel)
        gate = [] if issue.gate_step is None else [steps[issue.gate_step]]
        return self.transfer(EngineKind.DMA_IN, nbytes, gate + deps, tag,
                             channel)

    def priced(self, collective, pricer: pricing.MemoPricer,
               times: dict | None = None) -> OpTable:
        """A table with one design point's collective and DMA prices,
        each distinct key priced once for all of its ops, and the
        forward times ``times`` gives each op in ``compute``.  It
        shares the structure's other columns (see
        :meth:`OpTable._repriced`), so the structure itself is never
        modified."""
        _index_prefetches(self.table)
        tags = self.table.tags
        durations = self.table.durations.copy()
        for name, uid in self.compute.items():
            seconds = times[name][0]
            if seconds < 0:
                raise ValueError(f"op {tags[uid]}: negative duration")
            durations[uid] = seconds
        for (primitive, nbytes), uids in self.comm.items():
            _fill(durations, uids, collective(primitive, nbytes), tags)
        for nbytes, uids in self.dma.items():
            _fill(durations, uids, pricer(nbytes), tags)
        return self.table._repriced(durations)


def _fill(durations: list[float], uids: list[int], seconds: float,
          tags: list[str]) -> None:
    """Give every op in ``uids`` the price ``seconds``."""
    if seconds < 0:
        raise ValueError(f"op {tags[uids[0]]}: negative duration")
    for uid in uids:
        durations[uid] = seconds


def _emit_forward(structure: _OpStructure, net: Network,
                  parts: dict[str, PartitionedLayer], times: dict,
                  offload_window: int, fetched: dict[str, tuple],
                  offloaded: dict[str, tuple[str, ...]],
                  offload_bytes: dict[str, int]) \
        -> tuple[dict[str, int | None], dict[str, int]]:
    """Emit one forward pass into ``structure``.

    ``fetched`` maps a layer to the fetch issued before it (its policy
    issue, the waste before that, its bytes); ``offloaded`` maps a
    layer to the tensors offloaded after it, ``offload_bytes`` each.
    Returns each layer's compute op (``None`` for inputs) and each
    offloaded tensor's offload op.
    """
    ops = structure.table
    preds_of, _ = net.neighbours()
    fwd_ready: dict[str, int | None] = {}
    fwd_sync_uid: dict[str, int] = {}
    offload_uid: dict[str, int] = {}     # producer -> its offload op
    offload_order: list[int] = []
    computes: list[int] = []             # the fetches' gate steps
    for layer in net.layers:
        name = layer.name
        if layer.kind is LayerKind.INPUT:
            fwd_ready[name] = None
            continue
        part = parts[name]

        preds = preds_of[name]
        deps = [fwd_ready[p] for p in preds
                if fwd_ready.get(p) is not None]
        # Layer-boundary collectives are chunk-pipelined with the
        # consumer's compute (NCCL-style): a layer may run one step
        # ahead of communication, so it waits on its *grandparents'*
        # all-gathers, not its parents'.
        if fwd_sync_uid:
            for p in preds:
                for gp in preds_of[p]:
                    if gp in fwd_sync_uid:
                        deps.append(fwd_sync_uid[gp])
        # vDNN pinned-buffer back-pressure: at most `offload_window`
        # offloads may be outstanding before compute stalls.
        if len(offload_order) >= offload_window:
            deps.append(offload_order[-offload_window])
        if name in fetched:
            issue, waste, nbytes = fetched[name]
            deps.append(structure.fetch(issue, waste, computes, nbytes, [],
                                        f"wfetch:{name}"))
        compute = ops.add(EngineKind.COMPUTE, times[name][0],
                          deps, tag=f"fwd:{name}")
        computes.append(compute)
        fwd_ready[name] = ready = compute
        if part.fwd_sync is not None:
            ready = fwd_sync_uid[name] = structure.sync(
                part.fwd_sync.primitive, part.fwd_sync.nbytes, [compute],
                f"sync-fwd:{name}")

        # Offload every tensor whose last forward reuse is this layer;
        # a gathered tensor only becomes complete after its collective.
        for producer in offloaded.get(name, ()):
            uid = structure.transfer(EngineKind.DMA_OUT,
                                     offload_bytes[producer], [ready],
                                     f"offload:{producer}")
            offload_uid[producer] = uid
            offload_order.append(uid)
    return fwd_ready, offload_uid


def build_iteration_ops(plan: IterationPlan, config: SystemConfig,
                        prefetch: PrefetchSchedule | None = None,
                        pricer: pricing.MemoPricer | None = None) \
        -> OpTable:
    """Emit the iteration's ops in dependency-consistent issue order.

    ``prefetch`` carries the active policy's issue plan (computed from
    the config's ``prefetch_policy`` when omitted); the ``on-demand``
    baseline reproduces the seed's gate structure and pricing
    byte-for-byte.  Callers that already derived the DMA ``pricer``
    (one O(layers) plan walk) can pass it to avoid recomputing.

    The op structure (every column but the collective and DMA
    durations) is emitted once per plan for each device, device count,
    offload window and prefetch gate plan, and kept on the plan; every
    call returns a new table priced through this config's collective
    model and ``pricer``.
    """
    if pricer is None:
        pricer = iteration_pricer(plan, config)
    if prefetch is None:
        prefetch = plan_training_prefetch(plan, config, pricer)
    key = ("op-structure", config.device, config.n_devices,
           config.offload_window,
           tuple(issue.gate_step for issue in prefetch.issues),
           prefetch.waste)
    structure = pricing._memoized(
        plan._memo, key, "op-structure",
        lambda: _emit_structure(plan, config, prefetch))
    return structure.priced(pricing.collective_pricer(config.collectives),
                            pricer)


def _emit_structure(plan: IterationPlan, config: SystemConfig,
                    prefetch: PrefetchSchedule) -> _OpStructure:
    """Emit one iteration's op structure (see :class:`_OpStructure`)."""
    structure = _OpStructure()
    ops = structure.table
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    net = plan.net
    fwd_ready, offload_uid = _emit_forward(
        structure, net, plan.parts, times, config.offload_window, {},
        plan.step.prefetch_sites, plan.migrated_shards)

    # ---- Backward propagation ------------------------------------------
    _, succs_of = net.neighbours()
    pipelined = plan.strategy is ParallelStrategy.MODEL
    waste_before = prefetch.waste_before()
    site_index = 0
    bwd_ready: dict[str, int] = {}
    bwd_sync_uid: dict[str, int] = {}
    bwd_computes: list[int] = []
    for name in plan.step.bwd_order:
        part = plan.parts[name]

        succs = succs_of[name]
        deps = [bwd_ready[s] for s in succs if s in bwd_ready]
        # Pipelined gradient collectives: one step of run-ahead, so a
        # layer's backward waits on its grand-successors' dX reductions.
        if pipelined and bwd_sync_uid:
            for s in succs:
                for gs in succs_of[s]:
                    if gs in bwd_sync_uid:
                        deps.append(bwd_sync_uid[gs])
        if not deps and fwd_ready.get(name) is not None:
            # The loss-side frontier starts once forward has finished.
            deps = [fwd_ready[name]]  # type: ignore[list-item]

        # Prefetches feeding this backward step, gated per the active
        # policy's issue plan (the legacy bounded lookahead under
        # on-demand; earlier or later elsewhere on the axis).
        prefetch_ids = []
        for producer in plan.step.prefetch_sites.get(name, ()):
            prefetch_ids.append(structure.fetch(
                prefetch.issues[site_index],
                waste_before.get(site_index, ()), bwd_computes,
                plan.migrated_shards[producer], [offload_uid[producer]],
                f"prefetch:{producer}"))
            site_index += 1

        # Cheap tensors regenerated instead of migrated (footnote 4).
        recompute_ids = []
        for producer in plan.step.recompute_sites.get(name, ()):
            recompute_ids.append(ops.add(
                EngineKind.COMPUTE, times[producer][0],
                list(prefetch_ids), tag=f"recompute:{producer}"))

        compute = ops.add(EngineKind.COMPUTE, times[name][1],
                          deps + prefetch_ids + recompute_ids,
                          tag=f"bwd:{name}")
        bwd_computes.append(compute)

        if part.bwd_sync is not None:
            # Model-parallel dX reductions gate the grand-producers'
            # backward pass (pipelined, above); data-parallel dW
            # all-reduces only gate iteration end.
            bwd_sync_uid[name] = structure.sync(
                part.bwd_sync.primitive, part.bwd_sync.nbytes, [compute],
                f"sync-bwd:{name}")
        bwd_ready[name] = compute

    return structure
