"""Property-based invariants of the serving queue and batchers.

Random arrival sequences, policies, and service-time functions must
never violate the queueing laws the statistics layer assumes:

* FIFO dispatch order (no request overtakes an earlier one into a
  later batch);
* conservation (no request lost or duplicated);
* causality (dispatch >= arrival, latency >= service > 0);
* bounded batches (every batch within ``max_batch``);
* utilization <= 1 per server and in aggregate.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.batcher import BatchPolicy, form_batches, next_batch
from repro.serving.server import compute_stats, run_continuous, run_dynamic
from repro.serving.traces import replayed_trace

#: Inter-arrival gaps (seconds); zero gaps model simultaneous bursts.
gaps = st.lists(st.floats(min_value=0.0, max_value=0.2,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60)

policies = st.builds(BatchPolicy,
                     max_batch=st.integers(min_value=1, max_value=12),
                     max_wait=st.floats(min_value=0.0, max_value=0.05,
                                        allow_nan=False))

service_scales = st.floats(min_value=1e-5, max_value=0.05,
                           allow_nan=False)

n_servers = st.integers(min_value=1, max_value=5)


def trace_of(gap_list):
    arrivals = []
    t = 0.0
    for gap in gap_list:
        t += gap
        arrivals.append(t)
    return replayed_trace(arrivals)


def affine_latency(scale):
    """A monotone batch-latency model: setup + per-request cost."""
    return lambda batch: scale * (1.0 + 0.25 * batch)


@settings(max_examples=120, deadline=None)
@given(gaps=gaps, policy=policies, scale=service_scales,
       servers=n_servers)
def test_dynamic_conservation_and_causality(gaps, policy, scale,
                                            servers):
    trace = trace_of(gaps)
    ledger = run_dynamic(trace, policy, affine_latency(scale),
                         n_servers=servers)
    rids = sorted(c.request.rid for c in ledger.completed)
    assert rids == [r.rid for r in trace]  # no loss, no duplication
    for c in ledger.completed:
        assert c.dispatched >= c.request.arrival  # causality
        # latency >= service, within one float rounding of the
        # (dispatch + service) - arrival subtraction.
        assert c.latency >= c.service * (1 - 1e-12) - 1e-15
        assert c.service > 0.0
        assert c.queue_delay >= 0.0


@settings(max_examples=120, deadline=None)
@given(gaps=gaps, policy=policies, scale=service_scales,
       servers=n_servers)
def test_dynamic_fifo_dispatch_and_batch_bounds(gaps, policy, scale,
                                                servers):
    trace = trace_of(gaps)
    ledger = run_dynamic(trace, policy, affine_latency(scale),
                         n_servers=servers)
    by_rid = {c.request.rid: c for c in ledger.completed}
    ordered = [by_rid[r.rid] for r in trace]
    # FIFO: dispatch times are non-decreasing in arrival order.
    for earlier, later in zip(ordered, ordered[1:]):
        assert later.dispatched >= earlier.dispatched - 1e-12
    # Batch bounds: no dispatch span serves more than max_batch.
    spans: dict[tuple[float, float], int] = {}
    for c in ledger.completed:
        spans[(c.dispatched, c.finished)] = \
            spans.get((c.dispatched, c.finished), 0) + 1
    assert ledger.n_batches >= len(spans)
    assert max(spans.values()) <= policy.max_batch * servers


@settings(max_examples=120, deadline=None)
@given(gaps=gaps, policy=policies, scale=service_scales,
       servers=n_servers)
def test_dynamic_utilization_bounded(gaps, policy, scale, servers):
    trace = trace_of(gaps)
    ledger = run_dynamic(trace, policy, affine_latency(scale),
                         n_servers=servers)
    stats = compute_stats(ledger, arrival="replay", policy=policy,
                          batcher="dynamic", slo=0.05,
                          offered_rate=1.0, n_servers=servers)
    assert 0.0 < stats.utilization <= 1.0
    assert ledger.busy <= servers * stats.duration + 1e-9
    assert stats.goodput <= stats.throughput
    assert stats.latency_p50 <= stats.latency_p95 \
        <= stats.latency_p99 <= stats.latency_max


@settings(max_examples=100, deadline=None)
@given(gaps=gaps, policy=policies)
def test_batch_formation_partitions_fifo(gaps, policy):
    trace = trace_of(gaps)
    batches = form_batches(trace, policy)
    covered = []
    for start, count, dispatch in batches:
        assert 1 <= count <= policy.max_batch
        # The whole batch has arrived by its dispatch time.
        assert trace[start + count - 1].arrival <= dispatch + 1e-12
        covered.extend(range(start, start + count))
    assert covered == list(range(len(trace)))  # exact FIFO partition


@settings(max_examples=100, deadline=None)
@given(gaps=gaps, free_at=st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False),
       policy=policies)
def test_next_batch_never_starves_or_overfills(gaps, free_at, policy):
    trace = trace_of(gaps)
    count, dispatch = next_batch(trace, 0, free_at, policy)
    assert 1 <= count <= policy.max_batch
    assert dispatch >= max(free_at, trace[0].arrival)
    # The head never waits past its deadline once the server is free.
    head_deadline = max(free_at, trace[0].arrival + policy.max_wait)
    assert dispatch <= head_deadline + 1e-12


@settings(max_examples=100, deadline=None)
@given(gaps=gaps, policy=policies, scale=service_scales,
       steps=st.integers(min_value=1, max_value=6))
def test_continuous_conservation_and_slots(gaps, policy, scale, steps):
    trace = replayed_trace([r.arrival for r in trace_of(gaps)],
                           decode_steps=steps)
    seen_batches: list[int] = []

    def step_fn(batch):
        seen_batches.append(batch)
        return scale

    ledger = run_continuous(trace, policy, step_fn)
    rids = sorted(c.request.rid for c in ledger.completed)
    assert rids == [r.rid for r in trace]
    assert max(seen_batches) <= policy.max_batch
    assert ledger.work_items == steps * len(trace)
    for c in ledger.completed:
        assert c.service >= steps * scale - 1e-12
        assert c.dispatched >= c.request.arrival
    stats = compute_stats(ledger, arrival="replay", policy=policy,
                          batcher="continuous", slo=0.05,
                          offered_rate=1.0, n_servers=1)
    assert 0.0 < stats.utilization <= 1.0
