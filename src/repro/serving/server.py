"""The serving loop: traces x batcher x per-batch simulations.

Two server models, both deterministic event loops:

* :func:`run_dynamic` -- ``n_servers`` data-parallel replicas (one per
  device of the design point) each serve whole batches; a batch's
  service time is one forward-only ``simulate()`` of the network at
  that batch size, so queueing delay and the design's memory system
  compose into the end-to-end latency distribution.
* :func:`run_continuous` -- iteration-level (continuous) batching for
  the transformer workloads: one execution engine re-forms its batch
  every decode step, admitting waiting requests into free slots at
  step boundaries and retiring each request after its
  ``decode_steps``-th step.  Step time is a forward pass of the
  decode-step network; admissions additionally pay their prefill.

:func:`simulate_serving` wraps either loop into a cached, JSON-round-
tripping :class:`~repro.core.metrics.SimulationResult` carrying
:class:`~repro.core.metrics.ServingStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.core import pricing
from repro.core.metrics import (ExecutionMode, FaultStats, ServingStats,
                                SimulationResult, percentile)
from repro.core.simulator import simulate
from repro.core.system import SystemConfig
from repro.faults.lowering import (active_fault_model, degraded_config,
                                   healthy_config, record_fault_stats)
from repro.dnn.graph import Network
from repro.dnn.registry import build_network, decode_network
from repro.serving.batcher import BatchPolicy, next_batch
from repro.serving.traces import (Request, mmpp_trace, poisson_trace,
                                  replayed_trace)
from repro.training.parallel import ParallelStrategy

#: ``latency_fn(batch_size) -> seconds`` of one forward pass.
LatencyFn = Callable[[int], float]

DEFAULT_REQUESTS = 512
DEFAULT_SLO = 0.050
DEFAULT_DECODE_STEPS = 32


@dataclass(frozen=True)
class CompletedRequest:
    """One request's ledger entry."""

    request: Request
    dispatched: float  # service start (batch dispatch / admission)
    finished: float
    service: float     # time in service (dispatch to completion)

    @property
    def latency(self) -> float:
        return self.finished - self.request.arrival

    @property
    def queue_delay(self) -> float:
        return self.dispatched - self.request.arrival


@dataclass(frozen=True)
class ServingLedger:
    """Everything one server loop produced."""

    completed: tuple[CompletedRequest, ...]
    #: Aggregate engine-busy seconds across all servers.
    busy: float
    #: Dispatched batches (dynamic) or executed iterations (continuous).
    n_batches: int
    #: Request-batch memberships: requests (dynamic) or request-steps
    #: (continuous); ``work_items / n_batches`` is the mean batch size.
    work_items: int
    #: Requests dropped by SLO-aware load shedding before service
    #: (fault recovery; 0 when shedding is off).
    n_shed: int = 0
    #: Requests that completed past the request timeout and were
    #: excluded from the completion ledger (their service time still
    #: occupied the engine).
    n_timed_out: int = 0


class BatchLatencyModel:
    """Memoized forward-only batch latency of (design, network).

    Every model of one design and network shares one memo
    (:func:`repro.core.pricing.batch_latencies`), so each distinct
    batch size triggers one ``simulate(mode=INFERENCE)`` call per
    design and network until the pricing memos are cleared, however
    many serving runs ask for it; a run touches only a handful of
    sizes (``max_batch`` and the drain tail).
    """

    def __init__(self, config: SystemConfig,
                 network: Network | str) -> None:
        self.config = config
        self.network = (build_network(network)
                        if isinstance(network, str) else network)
        self._memo = pricing.batch_latencies(self.network, config)

    def result(self, batch: int) -> SimulationResult:
        if batch not in self._memo:
            self._memo[batch] = simulate(
                self.config, self.network, batch,
                mode=ExecutionMode.INFERENCE)
        return self._memo[batch]

    def __call__(self, batch: int) -> float:
        return self.result(batch).iteration_time


def run_dynamic(trace: Sequence[Request], policy: BatchPolicy,
                latency_fn: LatencyFn, n_servers: int = 1, *,
                shed_delay: float | None = None,
                timeout: float | None = None) -> ServingLedger:
    """Serve a trace with dynamic batching over replica servers.

    Batches form and dispatch in strict FIFO arrival order; each
    batch goes to the replica that frees up first.  Completion order
    may differ across replicas (a later, smaller batch can finish
    first), but within a replica service is serial.

    Fault recovery (both off by default, leaving the loop
    byte-identical): ``shed_delay`` drops a request whose projected
    queueing delay on the next-free replica already exceeds it;
    ``timeout`` excludes completions slower than it from the ledger
    (the replica still burned the service time).
    """
    if n_servers < 1:
        raise ValueError("need at least one server")
    free = [0.0] * n_servers
    completed: list[CompletedRequest] = []
    busy = 0.0
    n_batches = 0
    n_shed = 0
    n_timed_out = 0
    work_items = 0
    index = 0
    while index < len(trace):
        server = min(range(n_servers), key=free.__getitem__)
        if shed_delay is not None:
            while (index < len(trace)
                   and free[server] - trace[index].arrival > shed_delay):
                n_shed += 1
                index += 1
            if index >= len(trace):
                break
        count, dispatch = next_batch(trace, index, free[server], policy)
        service = latency_fn(count)
        if service < 0:
            raise ValueError("negative batch service time")
        finish = dispatch + service
        free[server] = finish
        busy += service
        n_batches += 1
        work_items += count
        for r in trace[index:index + count]:
            if timeout is not None and finish - r.arrival > timeout:
                n_timed_out += 1
                continue
            completed.append(
                CompletedRequest(request=r, dispatched=dispatch,
                                 finished=finish, service=service))
        index += count
    return ServingLedger(completed=tuple(completed), busy=busy,
                         n_batches=n_batches, work_items=work_items,
                         n_shed=n_shed, n_timed_out=n_timed_out)


def run_continuous(trace: Sequence[Request], policy: BatchPolicy,
                   step_fn: LatencyFn,
                   prefill_fn: LatencyFn | None = None, *,
                   shed_delay: float | None = None,
                   timeout: float | None = None) \
        -> ServingLedger:
    """Iteration-level (continuous) batching over one engine.

    The engine loops over decode iterations; at every step boundary it
    admits waiting requests into free slots (up to ``max_batch``
    in-flight).  An iteration costs the decode-step time at the
    current in-flight count, plus the admitted requests' prefill
    (``prefill_fn`` at the admission count) when given.  A request
    retires after its ``decode_steps``-th iteration.

    Only ``policy.max_batch`` applies here: iteration-level batching
    never holds work back to fill a batch, so ``max_wait`` plays no
    role (``simulate_serving`` normalizes it to zero for continuous
    cells).

    Fault recovery mirrors :func:`run_dynamic`: ``shed_delay`` drops a
    waiting request at its admission opportunity once it has queued
    longer than the threshold; ``timeout`` excludes too-slow
    completions from the ledger.  Both default off and change nothing.
    """
    clock = 0.0
    index = 0
    active: list[list] = []  # [steps_remaining, request, admitted_at]
    completed: list[CompletedRequest] = []
    busy = 0.0
    n_batches = 0
    work_items = 0
    n_shed = 0
    n_timed_out = 0
    while active or index < len(trace):
        if not active and trace[index].arrival > clock:
            clock = trace[index].arrival
        admitted = 0
        while (index < len(trace)
               and len(active) < policy.max_batch
               and trace[index].arrival <= clock):
            request = trace[index]
            if shed_delay is not None \
                    and clock - request.arrival > shed_delay:
                n_shed += 1
                index += 1
                continue
            active.append([request.decode_steps, request, clock])
            admitted += 1
            index += 1
        if not active:
            # Every admissible request was shed; re-anchor the clock
            # on the next arrival instead of running an empty step.
            continue
        step = step_fn(len(active))
        if admitted and prefill_fn is not None:
            step += prefill_fn(admitted)
        if step <= 0:
            raise ValueError("iteration time must be positive")
        clock += step
        busy += step
        n_batches += 1
        work_items += len(active)
        still = []
        for entry in active:
            entry[0] -= 1
            if entry[0] == 0:
                _, request, admitted_at = entry
                if timeout is not None \
                        and clock - request.arrival > timeout:
                    n_timed_out += 1
                    continue
                completed.append(CompletedRequest(
                    request=request, dispatched=admitted_at,
                    finished=clock, service=clock - admitted_at))
            else:
                still.append(entry)
        active = still
    completed.sort(key=lambda c: (c.finished, c.request.rid))
    return ServingLedger(completed=tuple(completed), busy=busy,
                         n_batches=n_batches, work_items=work_items,
                         n_shed=n_shed, n_timed_out=n_timed_out)


def compute_stats(ledger: ServingLedger, *, arrival: str, batcher: str,
                  policy: BatchPolicy, slo: float, offered_rate: float,
                  n_servers: int) -> ServingStats:
    """Fold a server ledger into :class:`ServingStats`.

    A ledger that completed nothing (zero offered load, or every
    request shed/timed out under fault injection) folds to a
    well-defined all-zero record instead of dividing by zero.
    """
    completed = ledger.completed
    if not completed:
        return ServingStats(
            arrival=arrival, batcher=batcher,
            max_batch=policy.max_batch, max_wait=policy.max_wait,
            slo=slo, n_requests=0, n_servers=n_servers, duration=0.0,
            offered_rate=offered_rate, throughput=0.0, goodput=0.0,
            slo_attainment=0.0, latency_mean=0.0, latency_p50=0.0,
            latency_p95=0.0, latency_p99=0.0, latency_max=0.0,
            queue_delay_mean=0.0, service_mean=0.0,
            mean_batch_size=0.0, utilization=0.0)
    latencies = sorted(c.latency for c in completed)
    n = len(latencies)
    first_arrival = min(c.request.arrival for c in completed)
    duration = max(c.finished for c in completed) - first_arrival
    within = sum(1 for lat in latencies if lat <= slo)

    return ServingStats(
        arrival=arrival,
        batcher=batcher,
        max_batch=policy.max_batch,
        max_wait=policy.max_wait,
        slo=slo,
        n_requests=n,
        n_servers=n_servers,
        duration=duration,
        offered_rate=offered_rate,
        throughput=n / duration,
        goodput=within / duration,
        slo_attainment=within / n,
        latency_mean=sum(latencies) / n,
        latency_p50=percentile(latencies, 50),
        latency_p95=percentile(latencies, 95),
        latency_p99=percentile(latencies, 99),
        latency_max=latencies[-1],
        queue_delay_mean=sum(c.queue_delay for c in completed) / n,
        service_mean=sum(c.service for c in completed) / n,
        mean_batch_size=ledger.work_items / ledger.n_batches,
        utilization=min(1.0, ledger.busy / (n_servers * duration)),
    )


def build_trace(arrival: str, rate: float, n_requests: int, seed: int,
                decode_steps: int,
                replay: Sequence[float] | None = None) \
        -> tuple[Request, ...]:
    """Materialize the named arrival process."""
    if arrival == "poisson":
        return poisson_trace(rate, n_requests, seed=seed,
                             decode_steps=decode_steps)
    if arrival in ("bursty", "mmpp"):
        return mmpp_trace(rate, n_requests, seed=seed,
                          decode_steps=decode_steps)
    if arrival == "replay":
        if replay is None:
            raise ValueError("replay arrivals require explicit offsets")
        return replayed_trace(replay, decode_steps=decode_steps)
    raise ValueError(f"unknown arrival process {arrival!r}; "
                     f"known: poisson, bursty, replay")


def _record_serving(ledger: ServingLedger, batcher: str) -> None:
    """Telemetry probe: per-batcher loop counters, folded once after
    the event loop from its ledger."""
    from repro.telemetry.registry import metrics_registry
    registry = metrics_registry()
    if registry is None:
        return
    labels = {"batcher": batcher}
    registry.counter(
        "repro_serving_requests_total",
        "requests completed by the serving loop",
        **labels).inc(len(ledger.completed))
    registry.counter(
        "repro_serving_batches_total",
        "batches dispatched (dynamic) or iterations executed "
        "(continuous)", **labels).inc(ledger.n_batches)
    registry.counter(
        "repro_serving_work_items_total",
        "request-batch memberships",
        **labels).inc(ledger.work_items)


def simulate_serving(config: SystemConfig, network: str, *,
                     arrival: str = "poisson", rate: float = 100.0,
                     n_requests: int = DEFAULT_REQUESTS, seed: int = 0,
                     slo: float = DEFAULT_SLO,
                     max_batch: int = 8, max_wait: float = 0.002,
                     batcher: str = "dynamic",
                     decode_steps: int = DEFAULT_DECODE_STEPS,
                     replay: Sequence[float] | None = None) \
        -> SimulationResult:
    """Run one complete serving simulation on a design point.

    Returns a :class:`SimulationResult` in ``ExecutionMode.SERVING``
    whose ``serving`` field carries the request-level statistics and
    whose per-batch fields (breakdown, streamed bytes) come from the
    representative forward simulation at ``max_batch`` -- so serving
    cells cache, replay, and render through the campaign machinery
    unchanged.
    """
    if batcher == "continuous":
        # Iteration-level batching admits at every step boundary and
        # never holds work to fill a batch: the wait deadline does not
        # exist in this discipline.  Normalize it to zero so reported
        # stats, labels, and cache keys cannot pretend otherwise.
        max_wait = 0.0
    policy = BatchPolicy(max_batch=max_batch, max_wait=max_wait)
    decode = decode_steps if batcher == "continuous" else 1
    trace = build_trace(arrival, rate, n_requests, seed, decode, replay)
    arrival_label = (f"{arrival}(r={rate:g},n={n_requests},s={seed})"
                     if arrival != "replay"
                     else f"replay(n={len(trace)})")

    from repro.telemetry.spans import span

    # Fault injection: serve on the degraded design and derive the
    # shed/timeout thresholds from the SLO; with the null model every
    # branch below collapses to the healthy configuration and the
    # loops run with recovery off (byte-identical).
    fault = active_fault_model(config)
    serve_config = degraded_config(config) if fault is not None \
        else config
    shed_delay = (fault.shed_slo_mult * slo
                  if fault is not None and fault.shed_slo_mult > 0
                  else None)
    timeout = (fault.timeout_slo_mult * slo
               if fault is not None and fault.timeout_slo_mult > 0
               else None)

    prefill = BatchLatencyModel(serve_config, network)
    if batcher == "dynamic":
        with span("serving:batcher", batcher=batcher):
            ledger = run_dynamic(trace, policy, prefill,
                                 n_servers=config.n_devices,
                                 shed_delay=shed_delay,
                                 timeout=timeout)
        n_servers = config.n_devices
    elif batcher == "continuous":
        step = BatchLatencyModel(serve_config, decode_network(network))
        with span("serving:batcher", batcher=batcher):
            ledger = run_continuous(trace, policy, step,
                                    prefill_fn=prefill,
                                    shed_delay=shed_delay,
                                    timeout=timeout)
        n_servers = 1
    else:
        raise ValueError(f"unknown batcher {batcher!r}; "
                         f"known: dynamic, continuous")

    stats = compute_stats(ledger, arrival=arrival_label,
                          batcher=batcher, policy=policy, slo=slo,
                          offered_rate=rate, n_servers=n_servers)
    _record_serving(ledger, batcher)
    shape = prefill.result(max_batch)
    faults = (_serving_fault_stats(fault, config, ledger, stats,
                                   prefill, network, max_batch)
              if fault is not None else None)

    return SimulationResult(
        system=config.name,
        network=shape.network,
        batch=max_batch,
        strategy=ParallelStrategy.DATA,
        n_devices=config.n_devices,
        # An empty ledger has zero duration; fall back to the
        # representative batch latency so the result stays valid.
        iteration_time=(stats.duration if stats.n_requests > 0
                        else shape.iteration_time),
        breakdown=shape.breakdown,
        offload_bytes_per_device=shape.offload_bytes_per_device,
        sync_bytes=shape.sync_bytes,
        host_traffic_bytes_per_device=shape.host_traffic_bytes_per_device,
        fits_in_device_memory=shape.fits_in_device_memory,
        mode=ExecutionMode.SERVING,
        serving=stats,
        prefetch=shape.prefetch,
        faults=faults,
    )


def _serving_fault_stats(fault, config: SystemConfig,
                         ledger: ServingLedger, stats: ServingStats,
                         prefill: BatchLatencyModel, network: str,
                         max_batch: int) -> FaultStats:
    """Fold one faulted serving run's ledger into :class:`FaultStats`.

    ``slowdown`` compares the representative ``max_batch`` latency on
    the degraded design against the healthy twin; ``availability`` is
    the fraction of offered requests that completed in time (shed and
    timed-out requests are the casualties).
    """
    healthy = BatchLatencyModel(healthy_config(config), network)
    slowdown = prefill(max_batch) / healthy(max_batch)
    offered = (stats.n_requests + ledger.n_shed + ledger.n_timed_out)
    standing = (fault.standing_multiplier < 1.0
                or fault.compute_multiplier > 1.0
                or (fault.node_loss_fraction > 0
                    and config.memory_node is not None))
    fraction = 1.0 if standing else fault.flap_duty
    result = FaultStats(
        model=fault.name,
        injected_events=(fault.flap_count_until(stats.duration)
                         + fault.standing_events()),
        degraded_seconds=fraction * stats.duration,
        slowdown=slowdown,
        retries=0,
        shed_requests=ledger.n_shed,
        timed_out_requests=ledger.n_timed_out,
        recovery_bytes=0,
        availability=(stats.n_requests / offered if offered else 1.0),
    )
    record_fault_stats(result, "serving")
    return result
