"""Top-level system simulator (paper Section IV's methodology).

``simulate(config, network, batch, strategy)`` runs one training
iteration of a benchmark on a design point and returns a
:class:`~repro.core.metrics.SimulationResult` carrying the iteration
time, the Figure 11 latency breakdown, and the traffic accounting that
feeds Figure 12.  :func:`iteration_timeline` returns the engine
timeline of the same run: both go through one driver, so a trace shows
exactly the schedule ``simulate()`` priced.
"""

from __future__ import annotations

import dataclasses

from repro.core.metrics import (ExecutionMode, LatencyBreakdown,
                                SimulationResult)
from repro.core.optable import ColumnarTimeline, schedule_ops
from repro.core.schedule import (build_inference_ops, build_iteration_ops,
                                 inference_pricer, iteration_pricer,
                                 plan_inference, plan_inference_prefetch,
                                 plan_iteration, plan_training_prefetch)
from repro.core.system import SystemConfig
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network
from repro.dnn.registry import build_network
from repro.faults.lowering import (active_fault_model, degraded_config,
                                   healthy_config, iteration_fault_stats,
                                   record_fault_stats)
from repro.host.cpu import CpuBandwidthUsage, socket_usage
from repro.telemetry.spans import span
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import collect_prefetch_stats

DEFAULT_BATCH = 512


def _resolve(network: Network | str) -> Network:
    if isinstance(network, str):
        return build_network(network)
    return network


def simulate(config: SystemConfig, network: Network | str,
             batch: int = DEFAULT_BATCH,
             strategy: ParallelStrategy = ParallelStrategy.DATA,
             mode: ExecutionMode = ExecutionMode.TRAINING) \
        -> SimulationResult:
    """Simulate one training iteration (or one forward-only inference
    batch, with ``mode=ExecutionMode.INFERENCE``) on a design point.

    Args:
        config: the design point (hardware + policy knobs).  Factory
            builds come from :func:`repro.core.design_points.design_point`.
        network: a built :class:`~repro.dnn.graph.Network` or a
            registry name (``"VGG-E"``, ``"BERT-Large"``, ...).
        batch: global minibatch size in samples (per-device under data
            parallelism; whole-node under model parallelism).
        strategy: data, model, or pipeline parallelism.
            ``ParallelStrategy.PIPELINE`` routes through
            :mod:`repro.pipeline` and populates ``result.pipeline``.
        mode: ``TRAINING`` (default) or ``INFERENCE``.  Request-level
            serving and multi-job cluster runs have their own entry
            points (:func:`repro.serving.simulate_serving`,
            :func:`repro.cluster.simulate_cluster`).

    Returns:
        A :class:`SimulationResult`.  ``iteration_time`` and every
        breakdown component are seconds; all traffic fields are bytes
        per iteration.  Results are deterministic.
    """
    return _drive(config, _resolve(network), batch, strategy, mode)[0]


def iteration_timeline(config: SystemConfig, network: Network | str,
                       batch: int = DEFAULT_BATCH,
                       strategy: ParallelStrategy =
                       ParallelStrategy.DATA) -> ColumnarTimeline:
    """The scheduled engine timeline of one training iteration (trace
    export).

    It is the timeline :func:`simulate` prices for the same arguments
    (for a faulted design point, the degraded run's), so its makespan
    is exactly ``simulate(...).iteration_time``.
    """
    return _drive(config, _resolve(network), batch, strategy,
                  ExecutionMode.TRAINING)[1]


def _drive(config: SystemConfig, net: Network, batch: int,
           strategy: ParallelStrategy, mode: ExecutionMode) \
        -> tuple[SimulationResult, ColumnarTimeline]:
    """The one simulator driver: plan, price, plan prefetches, emit,
    schedule, and collect one iteration.

    Returns the result and the timeline it was read from.  The
    per-mode steps are looked up by their module-global names on every
    call (never captured in an import-time table), so anything that
    rebinds them -- a profiler, an outside-in tracer -- sees each call.
    """
    fault = active_fault_model(config)
    if fault is not None:
        return _drive_faulted(fault, config, net, batch, strategy, mode)
    if mode is ExecutionMode.INFERENCE:
        kind = "inference"
        with span("plan", mode=kind):
            plan = plan_inference(net, config, batch, strategy)
        pricer_of, prefetch_of, emit = (inference_pricer,
                                        plan_inference_prefetch,
                                        build_inference_ops)
    elif mode is not ExecutionMode.TRAINING:
        raise ValueError(f"simulate() cannot run mode {mode}; serving "
                         f"runs through repro.serving")
    elif strategy is ParallelStrategy.PIPELINE:
        # Imported lazily: repro.pipeline depends on repro.core.
        from repro.pipeline.lowering import (build_pipeline_ops,
                                             pipeline_pricer,
                                             pipeline_stats, plan_pipeline,
                                             plan_pipeline_prefetch)
        kind = "pipeline"
        with span("plan", mode=kind):
            plan = plan_pipeline(net, config, batch)
        pricer_of, prefetch_of, emit = (pipeline_pricer,
                                        plan_pipeline_prefetch,
                                        build_pipeline_ops)
    else:
        kind = "training"
        with span("plan", mode=kind):
            plan = plan_iteration(net, config, batch, strategy)
        pricer_of, prefetch_of, emit = (iteration_pricer,
                                        plan_training_prefetch,
                                        build_iteration_ops)
    with span("price", mode=kind):
        pricer = pricer_of(plan, config)
        psched = prefetch_of(plan, config, pricer)
    with span("emit", mode=kind):
        ops = emit(plan, config, prefetch=psched, pricer=pricer)
    with span("schedule", mode=kind):
        timeline = schedule_ops(ops)

    pipeline = None
    if kind == "pipeline":
        pipeline = pipeline_stats(plan, timeline)
        offload = plan.offload_bytes_per_device
        host_traffic = 2 * offload
        footprint = plan.max_stage_footprint_bytes
        evictions = sum(stage.evictions for stage in psched)
    elif kind == "inference":
        # One-way weight streaming: inference pushes nothing back.
        offload = plan.weight_stream_bytes_per_device
        host_traffic = offload
        footprint = net.inference_footprint_bytes(batch)
        evictions = psched.evictions
    else:
        offload = plan.offload_bytes_per_device
        host_traffic = plan.round_trip_bytes_per_device
        # Weak scaling: every worker trains a full `batch`
        # (data-parallel) or materializes full gathered feature maps
        # (model-parallel), so the per-device footprint is the
        # full-batch footprint either way.
        footprint = net.training_footprint_bytes(batch)
        evictions = psched.evictions

    breakdown = LatencyBreakdown(
        compute=timeline.busy_time(EngineKind.COMPUTE),
        sync=timeline.busy_time(EngineKind.COMM),
        vmem=(timeline.busy_time(EngineKind.DMA_OUT)
              + timeline.busy_time(EngineKind.DMA_IN)))
    result = SimulationResult(
        system=config.name,
        network=net.name,
        batch=batch,
        strategy=strategy,
        n_devices=config.n_devices,
        iteration_time=timeline.makespan,
        breakdown=breakdown,
        offload_bytes_per_device=offload,
        sync_bytes=plan.sync_bytes_per_iteration,
        host_traffic_bytes_per_device=(host_traffic
                                       if config.uses_host_memory else 0),
        fits_in_device_memory=footprint <= config.device.memory_capacity,
        pipeline=pipeline,
        mode=mode,
        prefetch=collect_prefetch_stats(timeline, config.prefetch_policy,
                                        evictions=evictions),
    )
    return result, timeline


def _drive_faulted(fault, config: SystemConfig, net: Network, batch: int,
                   strategy: ParallelStrategy, mode: ExecutionMode) \
        -> tuple[SimulationResult, ColumnarTimeline]:
    """Iteration-level fault path: re-price under degradation, fold
    against the healthy twin.

    Both legs run the driver on ``fault_model="none"`` configs, so the
    degraded numbers come out of the same byte-stable pipeline as any
    user-built design -- faults only move inputs.  The timeline is the
    degraded run's.
    """
    with span("faults", model=fault.name, mode=mode.value):
        degraded, timeline = _drive(degraded_config(config), net, batch,
                                    strategy, mode)
        healthy, _ = _drive(healthy_config(config), net, batch, strategy,
                            mode)
    stats = iteration_fault_stats(
        fault, faulted_time=degraded.iteration_time,
        healthy_time=healthy.iteration_time)
    record_fault_stats(stats, mode.value)
    return (dataclasses.replace(degraded, system=config.name,
                                faults=stats), timeline)


def host_bandwidth_usage(config: SystemConfig,
                         result: SimulationResult) -> CpuBandwidthUsage:
    """Per-socket CPU memory bandwidth usage (Figure 12)."""
    if config.host_socket is None:
        raise ValueError(f"{config.name} has no host socket configured")
    concurrent = (config.vmem.channel.concurrent_bw
                  if config.virtualizes else 0.0)
    return socket_usage(config.host_socket,
                        result.host_traffic_bytes_per_device,
                        result.iteration_time, concurrent)
