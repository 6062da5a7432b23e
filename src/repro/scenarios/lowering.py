"""Lower scenarios onto the campaign engine.

:func:`lower_scenario` maps one :class:`~repro.scenarios.dsl.Scenario`
to a :class:`~repro.campaign.points.CampaignPoint` whose factory is
:func:`scenario_design_point` -- a module-level (hence pool-picklable)
wrapper over :func:`repro.core.design_points.design_point` that also
realizes the two DSL-only axes:

* ``device_mix`` builds a *worst-member composite* device: weak-scaling
  gangs synchronize every iteration, so a mixed fleet runs each
  resource (MACs, HBM bandwidth/latency/capacity) at the pace of its
  slowest generation.  The fleet width becomes the sum of the counts.
* ``pim_fraction`` moves a fraction ``f`` of eligible bandwidth-bound
  op traffic into the memory nodes, which stream it at near-bank
  internal bandwidth (:data:`PIM_INTERNAL_AMPLIFICATION` x the node's
  external DIMM bandwidth).  On the device roofline this is an
  effective-HBM-bandwidth scale of ``1 / max(1 - f, f * hbm / pim)``:
  the device leg keeps ``1 - f`` of the stream while the PIM leg
  finishes its ``f`` share in parallel, so the benefit saturates at
  the knee ``f* = pim / (pim + hbm)`` and degrades past it (the slow
  internal units become the critical path).

Because the factory's kwargs carry the mix and PIM knobs, the campaign
cache key (``point.describe(factory)``: the point's axes plus a digest
of the *built* composite config) differs for scenarios that differ in
any DSL axis -- they can never replay each other's cached cells.
"""

from __future__ import annotations

import dataclasses

from repro.accelerator.device import DeviceSpec
from repro.accelerator.generations import generation
from repro.campaign.points import CampaignPoint
from repro.core.design_points import design_point
from repro.core.system import SystemConfig
from repro.naming import resolve_spec
from repro.scenarios.dsl import Scenario
from repro.training.parallel import ParallelStrategy

#: Near-bank internal bandwidth of the memory node, as a multiple of
#: its external (memory-controller) bandwidth.  Ten DIMMs of rank- and
#: bank-group-parallel near-data units stream without sharing the
#: controller bottleneck; 8x over the 256 GB/s external figure gives
#: the 2 TB/s-class internal headroom the PIM literature reports.
PIM_INTERNAL_AMPLIFICATION = 8.0

_STRATEGIES = {
    "data": ParallelStrategy.DATA,
    "model": ParallelStrategy.MODEL,
    "pipeline": ParallelStrategy.PIPELINE,
}


def composite_device(device_mix) -> DeviceSpec:
    """The worst-member composite of a heterogeneous gang.

    Every resource runs at the slowest member's pace: the PE array of
    the lowest-throughput generation, and an HBM taking the minimum
    bandwidth/capacity and maximum latency across members.
    """
    if not device_mix:
        raise ValueError("device_mix must name at least one generation")
    members = [generation(name) for name, _ in device_mix]
    worst = min(members, key=lambda d: d.pe_array.peak_macs_per_sec)
    label = "+".join(f"{name}x{count}" for name, count in device_mix)
    hbm = dataclasses.replace(
        worst.hbm,
        name=f"mix({label})-mem",
        bandwidth=min(d.hbm.bandwidth for d in members),
        access_latency_cycles=max(d.hbm.access_latency_cycles
                                  for d in members),
        capacity=min(d.hbm.capacity for d in members))
    return dataclasses.replace(worst, name=f"mix({label})", hbm=hbm)


def pim_bandwidth_scale(fraction: float, hbm_bw: float,
                        pim_bw: float) -> float:
    """Effective HBM bandwidth multiplier at PIM offload ``fraction``."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("pim_fraction must lie in [0, 1)")
    if fraction == 0.0:
        return 1.0
    return 1.0 / max(1.0 - fraction, fraction * hbm_bw / pim_bw)


def with_pim(config: SystemConfig, fraction: float) -> SystemConfig:
    """Offload ``fraction`` of eligible op traffic into memory nodes."""
    if fraction == 0.0:
        return config
    node = config.memory_node
    if node is None:
        raise ValueError(
            f"pim_fraction needs a memory-node design; "
            f"{config.name} has no memory nodes")
    hbm = config.device.hbm
    scale = pim_bandwidth_scale(
        fraction, hbm.bandwidth,
        node.memory_bandwidth * PIM_INTERNAL_AMPLIFICATION)
    device = dataclasses.replace(
        config.device,
        name=f"{config.device.name}+pim{fraction:g}",
        hbm=dataclasses.replace(hbm, name=f"{hbm.name}+pim",
                                bandwidth=hbm.bandwidth * scale))
    return dataclasses.replace(config, device=device)


def scenario_design_point(name: str, *, device_mix=(),
                          pim_fraction: float = 0.0,
                          **kwargs) -> SystemConfig:
    """The scenario factory: ``design_point`` plus the DSL-only axes.

    A spec-valued keyword given by name (``pcie="pcie-gen4-x16"``,
    ``device="TPUv2"``) is resolved through :mod:`repro.naming`.
    Module-level and picklable, so scenario campaigns fan out across
    pool workers exactly like CLI campaigns do.
    """
    kwargs = {key: resolve_spec(key, value)
              for key, value in kwargs.items()}
    device_mix = tuple((str(gen), int(count))
                       for gen, count in device_mix)
    if device_mix:
        kwargs.setdefault("n_devices",
                          sum(count for _, count in device_mix))
        kwargs.setdefault("device", composite_device(device_mix))
    config = design_point(name, **kwargs)
    return with_pim(config, pim_fraction)


def lower_scenario(scenario: Scenario) -> CampaignPoint:
    """Map one scenario to its campaign point (factory kwargs, config
    replacements, and the serving/cluster knob tuples)."""
    system = scenario.system
    overrides = tuple(system.overrides)
    if system.device_mix:
        overrides += (("device_mix", system.device_mix),)
    if system.pim_fraction:
        overrides += (("pim_fraction", system.pim_fraction),)

    replacements = tuple(system.replacements)
    if scenario.fault_model != "none":
        replacements += (("fault_model", scenario.fault_model),)
    if scenario.prefetch_policy is not None:
        replacements += (("prefetch_policy", scenario.prefetch_policy),)

    fleet = scenario.fleet
    if fleet is not None:
        knobs = [
            ("arrival_rate", float(fleet.arrival_rate)),
            ("fleet_devices", fleet.fleet_devices),
            ("job_mix", fleet.job_mix),
            ("n_jobs", fleet.n_jobs),
            ("oversubscription", float(fleet.oversubscription)),
            ("policy", fleet.policy),
            ("seed", fleet.seed),
        ]
        if fleet.pool_capacity is not None:
            knobs.append(("pool_capacity", fleet.pool_capacity))
        if fleet.preempt_after is not None:
            knobs.append(("preempt_after", float(fleet.preempt_after)))
        return CampaignPoint(
            design=system.design, network=f"mix:{fleet.job_mix}",
            batch=fleet.n_jobs, strategy=ParallelStrategy.DATA,
            overrides=overrides, replacements=replacements,
            cluster=tuple(knobs), label=scenario.name)

    workload = scenario.workload
    traffic = scenario.traffic
    if traffic is not None:
        serving = (
            ("arrival", traffic.arrival),
            ("batcher", traffic.batcher),
            ("max_batch", traffic.max_batch),
            ("max_wait", traffic.max_wait_ms / 1e3),
            ("n_requests", traffic.n_requests),
            ("rate", float(traffic.rate)),
            ("seed", traffic.seed),
            ("slo", traffic.slo_ms / 1e3),
        )
        return CampaignPoint(
            design=system.design, network=workload.network,
            batch=traffic.max_batch, strategy=ParallelStrategy.DATA,
            overrides=overrides, replacements=replacements,
            serving=serving, label=scenario.name)

    strategy = _STRATEGIES[workload.strategy]
    if strategy is ParallelStrategy.PIPELINE:
        replacements += (
            ("pipeline_microbatches", workload.microbatches),
            ("pipeline_schedule", workload.schedule),
            ("pipeline_stages", workload.stages),
        )
    return CampaignPoint(
        design=system.design, network=workload.network,
        batch=workload.batch, strategy=strategy,
        overrides=overrides, replacements=replacements,
        label=scenario.name)
