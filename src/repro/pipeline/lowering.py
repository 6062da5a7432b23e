"""Lower a microbatch schedule onto the engine-level timeline.

Each pipeline stage is a device running the familiar four engines, so
stage *s* owns timeline channel *s* (:mod:`repro.core.timeline`):

* forward/backward microbatch work on ``COMPUTE``;
* boundary activations (and their gradients) as point-to-point ``COMM``
  ops on the *sending* stage's channel, priced over half the device's
  links (the half facing one neighbor in the ring topologies);
* per-microbatch activation-stash offload/prefetch on the DMA engines,
  with the vDNN back-pressure and prefetch-lookahead windows of the
  non-pipelined scheduler;
* the weight-gradient all-reduce at drain, when leftover devices form
  data-parallel replicas of the pipeline.

A microbatch's stash is offloaded only when the schedule keeps it
alive for more than ``offload_window`` slots -- the pinned-buffer
budget covers shorter lifetimes.  This is where fill-drain and 1F1B
diverge: fill-drain stashes every microbatch for ~``M`` slots and pays
the round-trip, 1F1B retires stage ``s``'s stash within ``P - s``
slots and mostly stays resident.

Zero-bubble kinds split each backward into an activation-grad op (B)
and a weight-grad op (W) on the same compute channel.  Lifetimes
follow the split: the activation stash (and its prefetch gating) is
released at B, while the W op holds only the layer-input bytes the
weight-gradient GEMMs re-read, bounded by the program's W backlog.
The ``interleaved`` kind additionally hosts ``chunks`` virtual stages
per device, mapping virtual stage *v* onto channel ``v % P``.

Design points that differ only in their interconnect and memory pool
share a pipeline's partition, stage times, schedule and op DAG, so
:func:`plan_pipeline` is memoized per network and each plan keeps the
op structures emitted from it; :func:`build_pipeline_ops` gives every
design its own copy with the stash-DMA and ``sync-dw`` durations
priced on that design's models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.device import DeviceSpec
from repro.collectives.ring_algorithm import Primitive
from repro.core import pricing
from repro.core.metrics import PipelineStats
from repro.core.optable import ColumnarTimeline, OpTable
from repro.core.schedule import _OpStructure, _plan_fetches, vmem_pricer
from repro.core.system import SystemConfig
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network
from repro.dnn.layers import LayerKind
from repro.pipeline.partition import (PipelineStage, crossing_sends,
                                      partition_stages,
                                      stageable_layer_count)
from repro.pipeline.schedules import (OpKind, PipelineSchedule,
                                      ScheduleCosts, ScheduleKind,
                                      build_schedule,
                                      parse_schedule_kind,
                                      structural_bubble_time)
from repro.vmem.prefetch import FetchSite, PrefetchSchedule


@dataclass(frozen=True)
class StageWork:
    """One stage's per-microbatch work, fully timed."""

    index: int
    layer_names: tuple[str, ...]
    fwd_time: float
    bwd_time: float
    #: Unique trainable bytes held by this stage (shared groups once).
    weight_bytes: int
    #: Offloadable activation bytes one microbatch stashes here.
    stash_bytes: int
    #: Outgoing boundary traffic, aggregated per consumer stage:
    #: (consumer stage, total bytes per microbatch).  Multiple
    #: crossing edges to one stage (residual + block output) bundle
    #: into a single transfer.
    sends: tuple[tuple[int, int], ...]
    #: Per-microbatch offload decision (schedule lifetime > window).
    offloaded: tuple[bool, ...]
    #: Peak microbatches in flight under the schedule.
    max_in_flight: int
    #: Deferred weight-grad (W) time per microbatch; zero on schedules
    #: that keep the backward undifferentiated (then ``bwd_time`` is
    #: the whole backward, otherwise it is the B part alone).
    wgrad_time: float = 0.0
    #: Layer-input bytes one microbatch's W ops re-read (held from B
    #: until W).
    wgrad_stash_bytes: int = 0
    #: Peak microbatches whose W is deferred past their B.
    max_w_backlog: int = 0

    @property
    def offload_bytes(self) -> int:
        """Bytes this stage offloads per iteration (one way)."""
        return self.stash_bytes * sum(self.offloaded)


@dataclass(frozen=True)
class PipelinePlan:
    """Everything needed to emit (and introspect) a pipeline iteration."""

    network: str
    batch: int
    microbatch: int
    schedule: PipelineSchedule
    stages: tuple[StageWork, ...]
    #: Data-parallel replicas of the whole pipeline (n_devices // P).
    replicas: int
    #: Virtual stages hosted per device (1 except ``interleaved``).
    chunks: int = 1
    #: Derived from this plan only: the gate plans of policies that
    #: read no prices (see :func:`~repro.core.schedule._plan_fetches`)
    #: and the op structures emitted from it (see
    #: :func:`build_pipeline_ops`).
    #: Never copied: ``dataclasses.replace`` starts an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def n_stages(self) -> int:
        return self.schedule.n_stages

    @property
    def n_channels(self) -> int:
        """Physical devices in the pipeline (timeline channels)."""
        return self.schedule.n_stages // self.chunks

    def channel_of(self, stage: int) -> int:
        return stage % self.n_channels

    @property
    def stage_offload_bytes(self) -> tuple[int, ...]:
        return tuple(stage.offload_bytes for stage in self.stages)

    @property
    def channel_offload_bytes(self) -> tuple[int, ...]:
        """Offload traffic per physical device (virtual stages summed)."""
        totals = [0] * self.n_channels
        for stage in self.stages:
            totals[self.channel_of(stage.index)] += stage.offload_bytes
        return tuple(totals)

    @property
    def offload_bytes_per_device(self) -> int:
        """The bottleneck (worst-device) offload bytes."""
        return max(self.channel_offload_bytes)

    @property
    def sync_bytes_per_iteration(self) -> int:
        """Activation/gradient p2p plus the drain all-reduce bytes."""
        total = 0
        for stage in self.stages:
            for _, nbytes in stage.sends:
                total += 2 * nbytes * self.schedule.n_microbatches
            if self.replicas > 1:
                total += stage.weight_bytes
        return total

    @property
    def max_stage_footprint_bytes(self) -> int:
        """Worst device's resident need: weights + grads + peak stash
        (+ weight-grad inputs held across the W deferral)."""
        totals = [0] * self.n_channels
        for stage in self.stages:
            totals[self.channel_of(stage.index)] += (
                2 * stage.weight_bytes
                + stage.stash_bytes * stage.max_in_flight
                + stage.wgrad_stash_bytes * stage.max_w_backlog)
        return max(totals)


def _p2p_time(config: SystemConfig, nbytes: int) -> float:
    """One neighbor-to-neighbor transfer: half the device's links."""
    bandwidth = config.device.aggregate_link_bw / 2
    return config.device.link.latency + nbytes / bandwidth


def _stage_weight_bytes(net: Network, stage: PipelineStage) -> int:
    seen: set[str] = set()
    total = 0
    for name in stage.layer_names:
        layer = net.layer(name)
        if not layer.weight_elems:
            continue
        if layer.weight_group:
            if layer.weight_group in seen:
                continue
            seen.add(layer.weight_group)
        total += layer.weight_bytes
    return total


def _layer_times(net: Network, device: DeviceSpec, microbatch: int,
                 split: bool) -> dict[str, tuple[float, float, float,
                                                 bool]]:
    """Per non-input layer: ``(fwd, bwd, wgrad, is_cheap)`` seconds
    per microbatch.

    Without ``split`` the whole backward lands in ``bwd`` and
    ``wgrad`` is zero; with it, ``bwd`` is the activation-grad (B)
    part and ``wgrad`` the deferrable dW part.  Memoized per network
    version, device, microbatch and split: every design point sharing
    the device times each layer once, and each distinct (GEMMs, stream
    elements) layer shape is timed once per build.
    """
    def build() -> dict[str, tuple[float, float, float, bool]]:
        timed: dict[tuple, tuple[float, float, float]] = {}
        times = {}
        for layer in net.layers:
            if layer.kind is LayerKind.INPUT:
                continue
            key = (layer.gemms, layer.stream_elems)
            seconds = timed.get(key)
            if seconds is None:
                fwd = device.layer_fwd_time(layer, microbatch)
                if split:
                    bwd, wgrad = device.layer_bwd_split_time(layer,
                                                             microbatch)
                else:
                    bwd = device.layer_bwd_time(layer, microbatch)
                    wgrad = 0.0
                seconds = timed[key] = (fwd, bwd, wgrad)
            times[layer.name] = (*seconds, layer.is_cheap)
        return times

    return pricing._memoized(
        pricing._net_cache(net),
        ("stage-times", net.version, device, microbatch, split),
        "stage-times", build)


def _stage_times(times: dict[str, tuple[float, float, float, bool]],
                 stage: PipelineStage,
                 virtualizes: bool) -> tuple[float, float, float]:
    """(fwd, bwd, wgrad) compute time of one stage per microbatch,
    summed in layer order from :func:`_layer_times`.

    Cheap layers are recomputed during backward instead of migrated
    (footnote 4), so on a virtualizing design their forward time is
    added to ``bwd``: it must run before the gradient can propagate.
    """
    fwd = bwd = wgrad = 0.0
    for name in stage.layer_names:
        entry = times.get(name)
        if entry is None:
            continue  # an input pseudo-layer
        layer_fwd, layer_bwd, layer_wgrad, cheap = entry
        fwd += layer_fwd
        bwd += layer_bwd
        wgrad += layer_wgrad
        if cheap and virtualizes:
            bwd += layer_fwd
    return fwd, bwd, wgrad


def _stage_stash_bytes(net: Network, stage: PipelineStage,
                       microbatch: int) -> int:
    """Offloadable (non-cheap, non-input) activation bytes per mb."""
    return sum(net.layer(name).out_bytes(microbatch)
               for name in stage.layer_names
               if not net.layer(name).is_cheap
               and net.layer(name).kind is not LayerKind.INPUT)


def _stage_wgrad_stash_bytes(net: Network, stage: PipelineStage,
                             microbatch: int) -> int:
    """Input-activation bytes the stage's weight-grad GEMMs re-read.

    dW = X^T . dY needs each weighted layer's *input*; deferring W
    keeps those producers resident past B (each counted once even when
    feeding several weighted layers).
    """
    producers: set[str] = set()
    for name in stage.layer_names:
        if not net.layer(name).weight_elems:
            continue
        producers.update(net.predecessors(name))
    return sum(net.layer(p).out_bytes(microbatch) for p in producers)


def resolve_stage_count(net: Network, config: SystemConfig) -> int:
    """The pipeline depth a config implies for a network."""
    requested = config.pipeline_stages or config.n_devices
    return max(1, min(requested, stageable_layer_count(net)))


def _partition(net: Network, n_stages: int) \
        -> tuple[tuple[PipelineStage, ...],
                 dict[int, tuple[tuple[str, int], ...]]]:
    """The stages and crossing sends of one stage count, memoized per
    network version."""
    def build():
        stages = partition_stages(net, n_stages)
        return stages, crossing_sends(net, stages)

    return pricing._memoized(
        pricing._net_cache(net),
        ("pipeline-partition", net.version, n_stages),
        "pipeline-partition", build)


def plan_pipeline(net: Network, config: SystemConfig,
                  batch: int) -> PipelinePlan:
    """Partition, schedule, and time one pipeline-parallel iteration.

    Memoized per network on exactly what a plan reads: the batch, the
    canonical schedule kind (so aliases share a plan), the stage,
    device and microbatch counts, the device, whether the design
    virtualizes, and its offload window.  Design points that differ
    only in their interconnect and memory pool share one plan, and
    with it the op structures emitted from it.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    kind = parse_schedule_kind(config.pipeline_schedule)
    return pricing._memoized(
        pricing._net_cache(net),
        ("pipeline-plan", net.version, batch, kind,
         config.pipeline_stages, config.n_devices,
         config.pipeline_microbatches, config.device,
         config.virtualizes, config.offload_window),
        "pipeline-plan", lambda: _plan(net, config, batch, kind))


def _plan(net: Network, config: SystemConfig, batch: int,
          kind: ScheduleKind) -> PipelinePlan:
    """Build the plan :func:`plan_pipeline` memoizes."""
    n_channels = resolve_stage_count(net, config)
    chunks = kind.virtual_chunks
    if chunks > 1 and (n_channels < 2 or stageable_layer_count(net)
                       < chunks * n_channels):
        chunks = 1  # too shallow to interleave; degenerate to one chunk
    n_stages = n_channels * chunks
    n_microbatches = config.pipeline_microbatches
    if batch % n_microbatches:
        # Simulating a padded batch would silently skew throughput
        # against the data/model-parallel cells at the same batch.
        raise ValueError(
            f"batch {batch} is not divisible by "
            f"pipeline_microbatches={n_microbatches}")
    microbatch = batch // n_microbatches
    split = kind.splits_wgrad

    stages, sends = _partition(net, n_stages)
    times = _layer_times(net, config.device, microbatch, split)

    # Time every stage before building the schedule: the zb-auto
    # search ranks slot orderings against these very costs.
    timed = []
    for stage in stages:
        fwd, bwd, wgrad = _stage_times(times, stage, config.virtualizes)
        bytes_to: dict[int, int] = {}
        for producer, to in sends[stage.index]:
            bytes_to[to] = bytes_to.get(to, 0) \
                + net.layer(producer).out_bytes(microbatch)
        timed.append((stage, fwd, bwd, wgrad,
                      tuple(sorted(bytes_to.items()))))

    costs = None
    if kind is ScheduleKind.ZB_AUTO:
        # Grad sends mirror the forward boundary traffic, so one
        # per-stage p2p estimate serves both directions.
        send_cost = tuple(
            sum(_p2p_time(config, nbytes) for _, nbytes in stage_sends)
            for _, _, _, _, stage_sends in timed)
        costs = ScheduleCosts(
            t_fwd=tuple(fwd for _, fwd, _, _, _ in timed),
            t_bwd=tuple(bwd for _, _, bwd, _, _ in timed),
            t_wgrad=tuple(wgrad for _, _, _, wgrad, _ in timed),
            send_fwd=send_cost, send_bwd=send_cost)
    schedule = build_schedule(kind, n_stages, n_microbatches, costs)

    works = []
    for stage, fwd, bwd, wgrad, stage_sends in timed:
        program = schedule.program(stage.index)
        stash = _stage_stash_bytes(net, stage, microbatch)
        offloaded = tuple(
            config.virtualizes and stash > 0
            and program.stash_slots(m) > config.offload_window
            for m in range(n_microbatches))
        works.append(StageWork(
            index=stage.index, layer_names=stage.layer_names,
            fwd_time=fwd, bwd_time=bwd,
            weight_bytes=_stage_weight_bytes(net, stage),
            stash_bytes=stash,
            sends=stage_sends,
            offloaded=offloaded,
            max_in_flight=program.max_in_flight,
            wgrad_time=wgrad,
            wgrad_stash_bytes=(_stage_wgrad_stash_bytes(
                net, stage, microbatch) if split else 0),
            max_w_backlog=program.max_w_backlog))

    return PipelinePlan(
        network=net.name, batch=batch, microbatch=microbatch,
        schedule=schedule, stages=tuple(works),
        replicas=max(1, config.n_devices // n_channels),
        chunks=chunks)


def _stage_bwd_order(plan: PipelinePlan,
                     stage: StageWork) -> list[int]:
    """One stage's microbatches in backward (B) slot order: the stash
    is consumed, and freed, by the activation-grad op."""
    return [slot.microbatch for slot
            in plan.schedule.program(stage.index).slots
            if slot.kind is OpKind.B]


def _pipeline_seconds(plan: PipelinePlan,
                      config: SystemConfig) -> tuple[float, float]:
    """(compute, communication) seconds of one pipeline iteration."""
    n_microbatches = plan.schedule.n_microbatches
    compute = sum(
        (stage.fwd_time + stage.bwd_time + stage.wgrad_time)
        * n_microbatches for stage in plan.stages)
    collective = pricing.collective_pricer(config.collectives)
    comm = 0.0
    for stage in plan.stages:
        for _, nbytes in stage.sends:
            comm += 2 * n_microbatches * _p2p_time(config, nbytes)
        if plan.replicas > 1 and stage.weight_bytes:
            comm += collective(Primitive.ALL_REDUCE, stage.weight_bytes)
    return compute, comm


def pipeline_pricer(plan: PipelinePlan, config: SystemConfig):
    """The stash-DMA pricer of one pipeline iteration."""
    return vmem_pricer(config, lambda: _pipeline_seconds(plan, config))


def plan_pipeline_prefetch(plan: PipelinePlan, config: SystemConfig,
                           pricer=None) \
        -> tuple[PrefetchSchedule, ...]:
    """Run the configured prefetch policy over every stage's stash (see
    :func:`~repro.core.schedule._plan_fetches`).

    Each stage owns a private DMA channel, so the policy plans each
    stage independently: the steps are the stage's B slots, each
    estimated at its per-microbatch backward (B) time, and the sites
    its offloaded microbatches in B-slot order.
    """
    def channels():
        for stage in plan.stages:
            order = _stage_bwd_order(plan, stage)
            yield ((stage.bwd_time,) * len(order), tuple(
                FetchSite(producer=f"s{stage.index}:m{m}", use_step=step,
                          nbytes=stage.stash_bytes)
                for step, m in enumerate(order) if stage.offloaded[m]))

    return _plan_fetches(
        plan._memo, config,
        lambda: pipeline_pricer(plan, config) if pricer is None
        else pricer, channels)


def build_pipeline_ops(plan: PipelinePlan, config: SystemConfig,
                       prefetch: tuple[PrefetchSchedule, ...] | None
                       = None, pricer=None) -> OpTable:
    """Emit the pipeline's ops; stage *s* runs on channel ``s % P``.

    Emission walks every stage's program in slot order, interleaving
    stages as cross-stage dependencies allow, so per-channel issue
    order equals program order (engines execute in issue order).
    Stash prefetches are gated per the active policy's per-stage issue
    plan (the legacy bounded lookahead under ``on-demand``).  On
    zero-bubble schedules the W slot depends only on its own B -- it
    is pure deferrable filler on the stage's compute channel.

    The op structure (every column but the stash-DMA and ``sync-dw``
    durations) is emitted once per plan for each device, offload
    window and prefetch gate plan, and kept on the plan; every call
    returns a new table priced through this config's collective model
    and ``pricer``, exactly as training tables are.
    """
    if pricer is None:
        pricer = pipeline_pricer(plan, config)
    if prefetch is None:
        prefetch = plan_pipeline_prefetch(plan, config, pricer)
    key = ("op-structure", config.device, config.offload_window,
           tuple(tuple(issue.gate_step for issue in sched.issues)
                 for sched in prefetch),
           tuple(sched.waste for sched in prefetch))
    structure = pricing._memoized(
        plan._memo, key, "op-structure",
        lambda: _emit_structure(plan, config, prefetch))
    return structure.priced(pricing.collective_pricer(config.collectives),
                            pricer)


def _emit_structure(plan: PipelinePlan, config: SystemConfig,
                    prefetch: tuple[PrefetchSchedule, ...]) \
        -> _OpStructure:
    """Emit one pipeline iteration's op structure (see
    :class:`~repro.core.schedule._OpStructure`)."""
    # Per stage: microbatch -> (its fetch issue, the waste emitted
    # just before it).
    stage_fetch: list[dict[int, tuple]] = []
    for stage, sched in zip(plan.stages, prefetch):
        waste_before = sched.waste_before()
        fetched = [m for m in _stage_bwd_order(plan, stage)
                   if stage.offloaded[m]]
        stage_fetch.append({
            m: (sched.issues[i], waste_before.get(i, ()))
            for i, m in enumerate(fetched)})
    structure = _OpStructure()
    ops = structure.table
    schedule = plan.schedule
    n_stages = schedule.n_stages
    chan = plan.channel_of

    targets = {s.index: tuple(to for to, _ in s.sends)
               for s in plan.stages}
    sources: dict[int, list[int]] = {s.index: [] for s in plan.stages}
    for stage in plan.stages:
        for to, _ in stage.sends:
            if stage.index not in sources[to]:
                sources[to].append(stage.index)

    fwd_uid: dict[tuple[int, int], int] = {}
    act_send: dict[tuple[int, int, int], int] = {}
    grad_send: dict[tuple[int, int, int], int] = {}
    offload_uid: dict[tuple[int, int], int] = {}
    offload_order: list[list[int]] = [[] for _ in range(n_stages)]
    bwd_uids: list[list[int]] = [[] for _ in range(n_stages)]
    bwd_uid: dict[tuple[int, int], int] = {}
    last_grad_uid: dict[int, int] = {}

    def emit_forward(stage: StageWork, m: int) -> None:
        s = stage.index
        deps = [act_send[(p, s, m)] for p in sources[s]]
        # vDNN pinned-buffer back-pressure, per stage.
        if len(offload_order[s]) >= config.offload_window:
            deps.append(offload_order[s][-config.offload_window])
        uid = ops.add(EngineKind.COMPUTE, stage.fwd_time, deps,
                      tag=f"fwd:s{s}:m{m}", channel=chan(s))
        fwd_uid[(s, m)] = uid
        for to, nbytes in stage.sends:
            act_send[(s, to, m)] = ops.add(
                EngineKind.COMM, _p2p_time(config, nbytes), [uid],
                tag=f"send-act:s{s}>s{to}:m{m}", nbytes=nbytes,
                channel=chan(s))
        if stage.offloaded[m]:
            uid_off = structure.transfer(EngineKind.DMA_OUT,
                                         stage.stash_bytes, [uid],
                                         f"offload:s{s}:m{m}", chan(s))
            offload_uid[(s, m)] = uid_off
            offload_order[s].append(uid_off)

    def emit_backward(stage: StageWork, m: int) -> None:
        s = stage.index
        if targets[s]:
            deps = [grad_send[(t, s, m)] for t in targets[s]]
        else:
            # The loss-side stage turns around on its own forward.
            deps = [fwd_uid[(s, m)]]
        if stage.offloaded[m]:
            # Prefetch gated per the policy's issue plan for this
            # stage (legacy bounded lookahead under on-demand).
            issue, waste = stage_fetch[s][m]
            deps.append(structure.fetch(
                issue, waste, bwd_uids[s], stage.stash_bytes,
                [offload_uid[(s, m)]], f"prefetch:s{s}:m{m}", chan(s)))
        uid = ops.add(EngineKind.COMPUTE, stage.bwd_time, deps,
                      tag=f"bwd:s{s}:m{m}", channel=chan(s))
        bwd_uids[s].append(uid)
        bwd_uid[(s, m)] = uid
        last_grad_uid[s] = uid
        for p in sources[s]:
            nbytes = next(b for to, b in plan.stages[p].sends
                          if to == s)
            grad_send[(s, p, m)] = ops.add(
                EngineKind.COMM, _p2p_time(config, nbytes), [uid],
                tag=f"send-grad:s{s}>s{p}:m{m}", nbytes=nbytes,
                channel=chan(s))

    def emit_wgrad(stage: StageWork, m: int) -> None:
        s = stage.index
        # Only the microbatch's own B gates W: the weight-grad inputs
        # sit resident (wgrad_stash_bytes) until this op retires them.
        uid = ops.add(EngineKind.COMPUTE, stage.wgrad_time,
                      [bwd_uid[(s, m)]], tag=f"wgrad:s{s}:m{m}",
                      channel=chan(s))
        last_grad_uid[s] = uid

    def ready(stage: StageWork, slot) -> bool:
        s = stage.index
        m = slot.microbatch
        if slot.kind is OpKind.F:
            return all((p, s, m) in act_send for p in sources[s])
        if slot.kind is OpKind.W:
            return (s, m) in bwd_uid
        if targets[s]:
            return all((t, s, m) in grad_send for t in targets[s])
        return (s, m) in fwd_uid

    cursors = [0] * n_stages
    total_slots = sum(len(p.slots) for p in schedule.programs)
    emitted = 0
    progress = True
    while progress:
        progress = False
        for stage in plan.stages:
            program = schedule.program(stage.index)
            while cursors[stage.index] < len(program.slots):
                slot = program.slots[cursors[stage.index]]
                if not ready(stage, slot):
                    break
                if slot.kind is OpKind.F:
                    emit_forward(stage, slot.microbatch)
                elif slot.kind is OpKind.B:
                    emit_backward(stage, slot.microbatch)
                else:
                    emit_wgrad(stage, slot.microbatch)
                cursors[stage.index] += 1
                emitted += 1
                progress = True
    if emitted != total_slots:
        raise RuntimeError(
            f"pipeline schedule deadlocked after {emitted}/"
            f"{total_slots} slots (inconsistent stage programs)")

    # Weight-gradient all-reduce across pipeline replicas at drain,
    # gated on the stage's last gradient-producing compute op (the
    # final W on zero-bubble schedules, the final backward otherwise).
    if plan.replicas > 1:
        for stage in plan.stages:
            if stage.weight_bytes:
                structure.sync(Primitive.ALL_REDUCE, stage.weight_bytes,
                               [last_grad_uid[stage.index]],
                               f"sync-dw:s{stage.index}",
                               chan(stage.index))
    return structure


def pipeline_stats(plan: PipelinePlan,
                   timeline: ColumnarTimeline) -> PipelineStats:
    """Per-device bubble/compute accounting of a scheduled pipeline.

    Rows are physical devices (timeline channels); under the
    interleaved kind each row folds the device's virtual stages
    together.  Two invariants are checked, not clamped away:

    * a device busier than the makespan means the timeline
      over-counted work;
    * the device running the last stage idles at least for the
      structural fill/drain bound
      (:func:`~repro.pipeline.schedules.structural_bubble_time` of the
      device count, the least per-device F, the least per-device B+W
      and the most per-device W, per microbatch): microbatch 0's
      forwards must reach it before it starts, and the last
      microbatch's backwards must leave it after it ends.  Less means
      the timeline lost idle time no schedule can avoid.  Devices
      upstream of a slower stage may idle less than the bound (their
      warmup forwards cover microbatch 0's round trip), so only the
      loss side is held to it.
    """
    makespan = timeline.makespan
    tolerance = 1e-9 * max(1.0, makespan)
    compute = []
    bubble = []
    for channel in range(plan.n_channels):
        busy = timeline.busy_time(EngineKind.COMPUTE, channel)
        gap = makespan - busy
        if gap < -tolerance:
            raise RuntimeError(
                f"stage {channel} busy time {busy!r} exceeds makespan "
                f"{makespan!r}: timeline over-counted compute")
        compute.append(busy)
        bubble.append(gap if gap > 0.0 else 0.0)
    offload = [0] * plan.n_channels
    in_flight = [0] * plan.n_channels
    wgrad = [0.0] * plan.n_channels
    # Per device and microbatch: F, B+W and W, summed over its stages.
    t_fwd = [0.0] * plan.n_channels
    t_grad = [0.0] * plan.n_channels
    t_wgrad = [0.0] * plan.n_channels
    for stage in plan.stages:
        channel = plan.channel_of(stage.index)
        offload[channel] += stage.offload_bytes
        in_flight[channel] += stage.max_in_flight
        wgrad[channel] += stage.wgrad_time \
            * plan.schedule.n_microbatches
        t_fwd[channel] += stage.fwd_time
        t_grad[channel] += stage.bwd_time + stage.wgrad_time
        t_wgrad[channel] += stage.wgrad_time
    bound = structural_bubble_time(plan.n_channels, min(t_fwd),
                                   min(t_grad), max(t_wgrad))
    last = plan.channel_of(plan.n_stages - 1)
    if bubble[last] < bound * (1.0 - 1e-9):
        raise RuntimeError(
            f"loss-side stage {last} bubble {bubble[last]!r} is below "
            f"the structural bound {bound!r}: timeline lost fill/drain "
            f"idle")
    return PipelineStats(
        schedule=plan.schedule.kind.value,
        n_stages=plan.n_channels,
        n_microbatches=plan.schedule.n_microbatches,
        microbatch=plan.microbatch,
        replicas=plan.replicas,
        stage_compute=tuple(compute),
        stage_bubble=tuple(bubble),
        stage_offload_bytes=tuple(offload),
        stage_max_in_flight=tuple(in_flight),
        stage_wgrad=(tuple(wgrad) if plan.schedule.splits_wgrad
                     else ()))
