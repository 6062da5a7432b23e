"""The cluster's cost oracle: price jobs via the core simulator.

Scheduling policies need three numbers per job -- how many devices it
gangs, how long it holds them, and how much of the shared memory pool
it reserves -- and all three fall out of one ``simulate()`` (or
``simulate_serving()``) call on the target design point:

* **service**: a training job of width ``w`` runs the design's
  data-parallel iteration sliced onto ``w`` devices.  Work is
  conserved, so service = iterations x iteration_time x (node / w);
  pipeline gangs and serving tenants take the simulated time as-is.
* **pool reservation**: ``offload_bytes_per_device`` is exactly the
  per-device working set resident in the backing store (the vDNN
  activation stash for training, the streamed multi-tenant weights for
  serving), so a job reserves ``width x offload_bytes_per_device`` of
  the pool -- and nothing on designs that do not virtualize.
* **vmem share**: the fraction of engine-busy time spent on migration,
  which scales the slowdown a job suffers when the pool is
  oversubscribed and its overflow spills to a slower tier.

Each distinct job class is simulated once per design point and
process (:func:`repro.core.pricing.cached_cluster_cell`); a cluster
run prices in a handful of simulator invocations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.jobs import SERVING_REQUESTS, JobKind, JobSpec
from repro.core import pricing
from repro.core.metrics import SimulationResult
from repro.core.simulator import simulate
from repro.core.system import SystemConfig
from repro.dnn.registry import build_network
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import ON_DEMAND

#: Weights + two Adam-style optimizer moments: the state a preempted
#: job checkpoints into (and restores from) the pool.
OPTIMIZER_STATE_FACTOR = 3


def policy_exposure(result: SimulationResult) -> float:
    """Spill-exposure factor of one priced job, in [0, 1].

    The measured share of the job's migration time that actually
    blocked compute (``stall_seconds / vmem``).  The on-demand
    baseline -- and any result without prefetch accounting -- prices
    at the conservative 1.0, so legacy cluster numbers are unchanged
    byte-for-byte.  A stall longer than the migration it waited on is
    an accounting error and raises; only float dust within 1e-9
    relative is folded to 1.0.
    """
    stats = result.prefetch
    if stats is None or stats.policy == ON_DEMAND:
        return 1.0
    vmem = result.breakdown.vmem
    if vmem <= 0.0:
        return 1.0
    stall = stats.stall_seconds
    if stall > vmem * (1.0 + 1e-9):
        raise ValueError(
            f"{result.system}: prefetch stall {stall!r} s exceeds its "
            f"migration time {vmem!r} s")
    return min(1.0, stall / vmem)


@dataclass(frozen=True)
class JobProfile:
    """One job priced on one design point."""

    spec: JobSpec
    #: Gang width actually placed (TRAINING honours ``spec.width``;
    #: PIPELINE / SERVING gangs span the whole node).
    devices: int
    #: Base busy seconds on each gang device, before any spill
    #: dilation or preemption overheads.
    service: float
    #: Bytes reserved in the shared pool while the job runs.
    pool_bytes: int
    #: Checkpoint/restore footprint moved through the pool on
    #: preemption.
    state_bytes: int
    #: Migration share of the job's engine-busy time, in [0, 1].
    vmem_share: float
    #: Latency-critical tenants are never preempted.
    preemptible: bool
    #: Share of the job's migration its prefetch policy leaves on the
    #: critical path, in [0, 1]: spill dilation scales by it.  The
    #: legacy on-demand baseline prices at 1.0 (the paper's
    #: conservative worst case); policies that hide migration behind
    #: compute are proportionally less sensitive to spilling.
    exposure: float = 1.0

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("profile needs at least one device")
        if self.service <= 0:
            raise ValueError("service time must be positive")
        if min(self.pool_bytes, self.state_bytes) < 0:
            raise ValueError("byte accounting must be >= 0")
        if not 0.0 <= self.vmem_share <= 1.0:
            raise ValueError("vmem_share must lie in [0, 1]")
        if not 0.0 <= self.exposure <= 1.0:
            raise ValueError("exposure must lie in [0, 1]")


class CostOracle:
    """Memoized job pricing for one design point."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def _result(self, spec: JobSpec) -> SimulationResult:
        # The process-wide pricing memo shares one priced job class
        # across every oracle of the same design point -- each
        # scheduling policy builds its own oracle, so without sharing
        # the comparison re-simulates every class per policy.
        if spec.kind is JobKind.SERVING:
            key = ("serving", spec.network, spec.batch, spec.rate,
                   spec.trace_seed)

            def run() -> SimulationResult:
                # Imported lazily: serving depends on repro.core.
                from repro.serving.server import simulate_serving
                return simulate_serving(
                    self.config, spec.network, rate=spec.rate,
                    n_requests=SERVING_REQUESTS,
                    seed=spec.trace_seed, max_batch=spec.batch)
            return pricing.cached_cluster_cell(self.config, key, run)
        strategy = (ParallelStrategy.PIPELINE
                    if spec.kind is JobKind.PIPELINE
                    else ParallelStrategy.DATA)
        return pricing.cached_cluster_cell(
            self.config, (spec.kind.value, spec.network, spec.batch),
            lambda: simulate(self.config, spec.network, spec.batch,
                             strategy))

    def profile(self, spec: JobSpec) -> JobProfile:
        """Price one job on this oracle's design point."""
        result = self._result(spec)
        node = self.config.n_devices
        if spec.kind is JobKind.TRAINING:
            devices = min(spec.width, node)
            service = (spec.iterations * result.iteration_time
                       * (node / devices))
        elif spec.kind is JobKind.PIPELINE:
            devices = node
            service = spec.iterations * result.iteration_time
        else:
            devices = node
            service = result.serving.duration
        pool_bytes = devices * result.offload_bytes_per_device
        total = result.breakdown.total
        vmem_share = (result.breakdown.vmem / total if total > 0
                      else 0.0)
        if spec.kind is JobKind.SERVING:
            state_bytes = build_network(spec.network).weight_bytes()
        else:
            state_bytes = (OPTIMIZER_STATE_FACTOR
                           * build_network(spec.network).weight_bytes())
        return JobProfile(
            spec=spec, devices=devices, service=service,
            pool_bytes=pool_bytes, state_bytes=state_bytes,
            vmem_share=vmem_share,
            preemptible=spec.kind is not JobKind.SERVING,
            exposure=policy_exposure(result))
