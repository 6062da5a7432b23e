"""Build one training iteration's op list for the timeline scheduler.

This is where the paper's three latency components meet: forward and
backward computation on the PE array, offload/prefetch DMAs on the
virtualization channel (with vDNN's pinned-buffer back-pressure and
bounded prefetch lookahead), and collective synchronization on the ring
networks.  The resulting :class:`~repro.core.optable.OpTable` encodes
every overlap opportunity and every stall the design point implies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import pricing
from repro.core.optable import OpTable
from repro.core.system import SystemConfig
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network
from repro.dnn.layers import LayerKind
from repro.training.backprop import TrainingStep
from repro.training.parallel import ParallelStrategy, PartitionedLayer
from repro.vmem.policy import MigrationAction
from repro.vmem.prefetch import (ON_DEMAND, FetchSite, PrefetchContext,
                                 PrefetchSchedule, prefetch_policy)


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


def plan_iteration(net: Network, config: SystemConfig, batch: int,
                   strategy: ParallelStrategy) -> IterationPlan:
    """Partition the network and derive the migration plan."""
    parts = {p.name: p for p in pricing.cached_partition(
        net, batch, strategy, config.n_devices)}
    tensor_plans, step = pricing.cached_migration(
        net, batch, config.virtualizes)
    migrated = {
        plan.producer: parts[plan.producer].out_shard_bytes
        for plan in tensor_plans
        if plan.action is MigrationAction.OFFLOAD
    }
    return IterationPlan(net=net, batch=batch, strategy=strategy,
                         parts=parts, step=step, migrated_shards=migrated)


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


def vmem_pricer(config: SystemConfig, compute_seconds: float,
                comm_seconds: float) -> pricing.MemoPricer:
    """The DMA pricing the active prefetch policy implies.

    The legacy ``on-demand`` baseline keeps the paper's conservative
    always-contended pricing (its schedules must stay byte-identical
    to the seed's); the policy engine prices with the plan's measured
    contention fraction instead.
    """
    if config.prefetch_policy == ON_DEMAND:
        return pricing.MemoPricer(
            config.vmem.transfer_time,
            array_fn=config.vmem.transfer_time_array)
    fraction = contention_fraction(compute_seconds, comm_seconds)
    return pricing.MemoPricer(
        lambda nbytes: config.vmem.contended_transfer_time(nbytes,
                                                           fraction),
        array_fn=lambda sizes: config.vmem.contended_transfer_time_array(
            sizes, fraction))


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
        fwd_s, bwd_s = times[name]
        compute += fwd_s
        compute += bwd_s
        for sync in (part.fwd_sync, part.bwd_sync):
            if sync is not None:
                comm += collective(sync.primitive, sync.nbytes)
    return compute, comm


def iteration_pricer(plan: IterationPlan,
                     config: SystemConfig) -> pricing.MemoPricer:
    """The migration-DMA pricer of one training iteration."""
    compute, comm = _iteration_seconds(plan, config)
    return vmem_pricer(config, compute, comm)


def plan_training_prefetch(plan: IterationPlan, config: SystemConfig,
                           pricer: pricing.MemoPricer | None
                           = None) -> PrefetchSchedule:
    """Run the configured prefetch policy over a training iteration."""
    if pricer is None:
        pricer = iteration_pricer(plan, config)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    step_seconds = []
    sites = []
    shards = []
    for step_index, name in enumerate(plan.step.bwd_order):
        step_seconds.append(times[name][1])
        for producer in plan.step.prefetch_sites.get(name, ()):
            shard = plan.migrated_shards[producer]
            sites.append(FetchSite(producer=producer,
                                   use_step=step_index, nbytes=shard))
            shards.append(shard)
    fetch_seconds = pricer.many(shards)
    ctx = PrefetchContext(
        n_steps=len(plan.step.bwd_order), sites=tuple(sites),
        step_seconds=tuple(step_seconds),
        fetch_seconds=tuple(fetch_seconds),
        window=config.prefetch_window, stash=config.prefetch_stash)
    return prefetch_policy(config.prefetch_policy).plan(ctx)


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
    """Partition the network and derive the weight-streaming plan."""
    if strategy is ParallelStrategy.PIPELINE:
        raise ValueError(
            "inference serving replicates the model per device; "
            "pipeline-parallel inference is not modeled")
    parts = {p.name: p for p in pricing.cached_partition(
        net, batch, strategy, config.n_devices)}
    streamed: dict[str, int] = {}
    if config.virtualizes:
        seen_groups: set[str] = set()
        for layer in net.layers:
            if not layer.weight_elems:
                continue
            if layer.weight_group:
                if layer.weight_group in seen_groups:
                    continue
                seen_groups.add(layer.weight_group)
            nbytes = layer.weight_bytes
            if strategy is ParallelStrategy.MODEL:
                # Model-parallel shards each weight matrix N-wise.
                nbytes = max(1, nbytes // config.n_devices)
            streamed[layer.name] = nbytes
    return InferencePlan(net=net, batch=batch, strategy=strategy,
                         parts=parts, streamed_weights=streamed)


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
    compute, comm = _inference_seconds(plan, config)
    return vmem_pricer(config, compute, comm)


def plan_inference_prefetch(plan: InferencePlan, config: SystemConfig,
                            pricer: pricing.MemoPricer | None
                            = None) -> PrefetchSchedule:
    """Run the configured prefetch policy over the weight stream.

    Streamed weights are fetch sites exactly like training stashes:
    the consuming step of layer *k*'s weights is its forward compute,
    indexed by position among the non-input layers.
    """
    if pricer is None:
        pricer = inference_pricer(plan, config)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    step_seconds = []
    sites = []
    weights = []
    step_index = 0
    for name in plan.net.layer_names:
        layer = plan.net.layer(name)
        if layer.kind is LayerKind.INPUT:
            continue
        step_seconds.append(times[name][0])
        if name in plan.streamed_weights:
            nbytes = plan.streamed_weights[name]
            sites.append(FetchSite(producer=name, use_step=step_index,
                                   nbytes=nbytes))
            weights.append(nbytes)
        step_index += 1
    fetch_seconds = pricer.many(weights)
    ctx = PrefetchContext(
        n_steps=step_index, sites=tuple(sites),
        step_seconds=tuple(step_seconds),
        fetch_seconds=tuple(fetch_seconds),
        window=config.prefetch_window, stash=config.prefetch_stash)
    return prefetch_policy(config.prefetch_policy).plan(ctx)


def build_inference_ops(plan: InferencePlan, config: SystemConfig,
                        prefetch: PrefetchSchedule | None = None,
                        pricer: pricing.MemoPricer | None = None) \
        -> OpTable:
    """Emit one forward-only batch's ops in issue order.

    Weight fetches ride the prefetch DMA engine, gated per the active
    prefetch policy (the legacy bounded lookahead under ``on-demand``),
    so a fast backing store hides them behind compute and a slow one
    exposes them -- the serving-time memory wall.
    """
    if pricer is None:
        pricer = inference_pricer(plan, config)
    if prefetch is None:
        prefetch = plan_inference_prefetch(plan, config, pricer)
    waste_before = prefetch.waste_before()
    ops = OpTable()
    collective = pricing.collective_pricer(config.collectives)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    net = plan.net
    parts = plan.parts

    ready: dict[str, int | None] = {}
    sync_uid: dict[str, int] = {}
    computes: list[int] = []
    site_index = 0

    def fetch_gate(gate_step: int | None) -> list[int]:
        return [] if gate_step is None else [computes[gate_step]]

    for name in net.layer_names:
        layer = net.layer(name)
        if layer.kind is LayerKind.INPUT:
            ready[name] = None
            continue
        part = parts[name]

        preds = net.predecessors(name)
        deps = [ready[p] for p in preds if ready.get(p) is not None]
        # Chunk-pipelined layer-boundary collectives, exactly as in the
        # training forward pass: wait on grandparents' all-gathers.
        for p in preds:
            for gp in net.predecessors(p):
                if gp in sync_uid:
                    deps.append(sync_uid[gp])

        if name in plan.streamed_weights:
            issue = prefetch.issues[site_index]
            for waste in waste_before.get(site_index, ()):
                ops.add(EngineKind.DMA_IN, pricer(waste.nbytes),
                        fetch_gate(waste.gate_step),
                        tag=f"waste:{waste.label}", nbytes=waste.nbytes)
            site_index += 1
            nbytes = plan.streamed_weights[name]
            fetch = ops.add(EngineKind.DMA_IN, pricer(nbytes),
                            fetch_gate(issue.gate_step),
                            tag=f"wfetch:{name}", nbytes=nbytes)
            deps.append(fetch)

        compute = ops.add(EngineKind.COMPUTE, times[name][0],
                          deps, tag=f"fwd:{name}")
        computes.append(compute)
        if part.fwd_sync is not None:
            sync_uid[name] = ops.add(
                EngineKind.COMM,
                collective(part.fwd_sync.primitive,
                           part.fwd_sync.nbytes),
                [compute], tag=f"sync-fwd:{name}",
                nbytes=part.fwd_sync.nbytes)
        ready[name] = compute

    return ops


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
    """
    if pricer is None:
        pricer = iteration_pricer(plan, config)
    if prefetch is None:
        prefetch = plan_training_prefetch(plan, config, pricer)
    waste_before = prefetch.waste_before()
    ops = OpTable()
    collective = pricing.collective_pricer(config.collectives)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    net = plan.net
    parts = plan.parts
    site_index = 0

    fwd_ready: dict[str, int | None] = {}
    fwd_sync_uid: dict[str, int] = {}
    offload_uid: dict[str, int] = {}     # producer -> its offload op
    offload_order: list[int] = []

    # ---- Forward propagation -------------------------------------------
    for name in plan.step.fwd_order:
        layer = net.layer(name)
        part = parts[name]
        if layer.kind is LayerKind.INPUT:
            fwd_ready[name] = None
            continue

        preds = net.predecessors(name)
        deps = [fwd_ready[p] for p in preds
                if fwd_ready.get(p) is not None]
        # Layer-boundary collectives are chunk-pipelined with the
        # consumer's compute (NCCL-style): a layer may run one step
        # ahead of communication, so it waits on its *grandparents'*
        # all-gathers, not its parents'.
        for p in preds:
            for gp in net.predecessors(p):
                if gp in fwd_sync_uid:
                    deps.append(fwd_sync_uid[gp])
        # vDNN pinned-buffer back-pressure: at most `offload_window`
        # offloads may be outstanding before compute stalls.
        if len(offload_order) >= config.offload_window:
            deps.append(offload_order[-config.offload_window])
        compute = ops.add(EngineKind.COMPUTE, times[name][0],
                          deps, tag=f"fwd:{name}")
        ready = compute
        if part.fwd_sync is not None:
            sync = ops.add(EngineKind.COMM,
                           collective(part.fwd_sync.primitive,
                                      part.fwd_sync.nbytes),
                           [compute], tag=f"sync-fwd:{name}",
                           nbytes=part.fwd_sync.nbytes)
            fwd_sync_uid[name] = sync
            ready = sync
        fwd_ready[name] = compute if part.fwd_sync is not None else ready

        # Offload every tensor whose last forward reuse is this layer;
        # a gathered tensor only becomes complete after its collective.
        for producer in plan.step.prefetch_sites.get(name, ()):
            shard = plan.migrated_shards[producer]
            uid = ops.add(EngineKind.DMA_OUT, pricer(shard),
                          [ready], tag=f"offload:{producer}",
                          nbytes=shard)
            offload_uid[producer] = uid
            offload_order.append(uid)

    # ---- Backward propagation ------------------------------------------
    bwd_ready: dict[str, int] = {}
    bwd_sync_uid: dict[str, int] = {}
    bwd_computes: list[int] = []
    for step_index, name in enumerate(plan.step.bwd_order):
        layer = net.layer(name)
        part = parts[name]

        succs = net.successors(name)
        deps = [bwd_ready[s] for s in succs if s in bwd_ready]
        # Pipelined gradient collectives: one step of run-ahead, so a
        # layer's backward waits on its grand-successors' dX reductions.
        if plan.strategy is ParallelStrategy.MODEL:
            for s in succs:
                for gs in net.successors(s):
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
            issue = prefetch.issues[site_index]
            for waste in waste_before.get(site_index, ()):
                waste_gate = ([] if waste.gate_step is None
                              else [bwd_computes[waste.gate_step]])
                ops.add(EngineKind.DMA_IN, pricer(waste.nbytes),
                        waste_gate, tag=f"waste:{waste.label}",
                        nbytes=waste.nbytes)
            site_index += 1
            gate = ([] if issue.gate_step is None
                    else [bwd_computes[issue.gate_step]])
            shard = plan.migrated_shards[producer]
            prefetch_ids.append(ops.add(
                EngineKind.DMA_IN, pricer(shard),
                gate + [offload_uid[producer]],
                tag=f"prefetch:{producer}", nbytes=shard))

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
            sync = ops.add(EngineKind.COMM,
                           collective(part.bwd_sync.primitive,
                                      part.bwd_sync.nbytes),
                           [compute], tag=f"sync-bwd:{name}",
                           nbytes=part.bwd_sync.nbytes)
            # Model-parallel dX reductions gate the grand-producers'
            # backward pass (pipelined, above); data-parallel dW
            # all-reduces only gate iteration end.
            bwd_sync_uid[name] = sync
        bwd_ready[name] = compute

    return ops
