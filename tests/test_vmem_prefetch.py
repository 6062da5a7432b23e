"""Unit tests of the pluggable prefetch/eviction policy engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.design_points import design_point
from repro.core.metrics import PrefetchStats
from repro.core.optable import OpTable, schedule_ops
from repro.core.simulator import iteration_timeline
from repro.core.timeline import EngineKind
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import (ON_DEMAND, PREFETCH_POLICY_ORDER,
                                 FetchIssue, FetchSite, PrefetchContext,
                                 PrefetchSchedule, WasteFetch,
                                 choose_victim, collect_prefetch_stats,
                                 prefetch_policy)


def make_context(use_steps, n_steps=None, step_time=1.0,
                 fetch_time=0.5, nbytes=100, window=2, stash=8):
    """A uniform context over the given consumer steps."""
    if n_steps is None:
        n_steps = max(use_steps) + 1 if use_steps else 0
    sites = tuple(FetchSite(producer=f"t{i}", use_step=u, nbytes=nbytes)
                  for i, u in enumerate(use_steps))
    return PrefetchContext(
        n_steps=n_steps, sites=sites,
        step_seconds=tuple(step_time for _ in range(n_steps)),
        fetch_seconds=tuple(fetch_time for _ in sites),
        window=window, stash=stash)


class TestRegistry:
    def test_all_policies_resolve(self):
        for name in PREFETCH_POLICY_ORDER:
            assert prefetch_policy(name).name == name

    def test_unknown_policy_raises_with_known_list(self):
        with pytest.raises(KeyError, match="on-demand"):
            prefetch_policy("fifo")

    def test_axis_has_five_policies(self):
        assert len(PREFETCH_POLICY_ORDER) == 5
        assert PREFETCH_POLICY_ORDER[0] == ON_DEMAND


class TestValidation:
    def test_negative_site_fields_rejected(self):
        with pytest.raises(ValueError):
            FetchSite("x", -1, 10)
        with pytest.raises(ValueError):
            FetchSite("x", 0, -10)

    def test_context_rejects_out_of_range_site(self):
        with pytest.raises(ValueError, match="outside"):
            make_context([5], n_steps=3)

    def test_context_rejects_unordered_sites(self):
        with pytest.raises(ValueError, match="use order"):
            make_context([3, 1])

    def test_context_rejects_misaligned_estimates(self):
        with pytest.raises(ValueError):
            PrefetchContext(n_steps=2, sites=(),
                            step_seconds=(1.0,), fetch_seconds=(),
                            window=2, stash=8)

    def test_issue_gate_must_precede_use(self):
        site = FetchSite("x", 3, 10)
        with pytest.raises(ValueError):
            FetchIssue(site, 3)
        with pytest.raises(ValueError):
            FetchIssue(site, -1)
        assert FetchIssue(site, None).gate_step is None

    def test_waste_validation(self):
        with pytest.raises(ValueError):
            WasteFetch(before_site=-1, gate_step=None, nbytes=1,
                       label="x")
        with pytest.raises(ValueError):
            WasteFetch(before_site=0, gate_step=None, nbytes=-1,
                       label="x")

    def test_schedule_rejects_negative_evictions(self):
        with pytest.raises(ValueError):
            PrefetchSchedule(policy="x", issues=(), evictions=-1)


class TestBaselinePolicies:
    def test_on_demand_reproduces_window_gates(self):
        ctx = make_context([0, 1, 2, 3, 4], window=2)
        sched = prefetch_policy("on-demand").plan(ctx)
        gates = [i.gate_step for i in sched.issues]
        assert gates == [None, None, 0, 1, 2]
        assert sched.waste == () and sched.evictions == 0

    def test_next_op_gates_one_step_before(self):
        ctx = make_context([0, 2, 4])
        sched = prefetch_policy("next-op").plan(ctx)
        assert [i.gate_step for i in sched.issues] == [None, 1, 3]

    def test_clairvoyant_is_ungated_and_clean(self):
        ctx = make_context(list(range(10)))
        sched = prefetch_policy("clairvoyant").plan(ctx)
        assert all(i.gate_step is None for i in sched.issues)
        assert sched.wasted_bytes == 0
        assert sched.evictions == 0

    def test_empty_context_plans_empty_schedule(self):
        ctx = make_context([])
        for name in PREFETCH_POLICY_ORDER:
            sched = prefetch_policy(name).plan(ctx)
            assert sched.issues == () and sched.wasted_bytes == 0


class TestCostModel:
    def test_jit_gate_matches_latency_model(self):
        # step time 1s, fetch 1.5s: the fetch for step u needs to
        # start two steps early (gate completion at u-2 -> start at
        # prefix[u-1], 1s of compute left >= ... only gate u-3 gives
        # 2s >= 1.5s of lead).
        ctx = make_context([6], step_time=1.0, fetch_time=1.5)
        sched = prefetch_policy("cost-model").plan(ctx)
        gate = sched.issues[0].gate_step
        # prefix[gate+1] + 1.5 <= prefix[6] -> gate + 1 + 1.5 <= 6
        assert gate == 3

    def test_impossible_deadline_goes_ungated(self):
        ctx = make_context([1], step_time=0.1, fetch_time=10.0)
        sched = prefetch_policy("cost-model").plan(ctx)
        assert sched.issues[0].gate_step is None

    def test_queueing_pushes_later_fetches_earlier(self):
        # Two fetches to adjacent steps: the second must queue behind
        # the first on the serialized DMA engine, so its gate is
        # earlier than the naive per-fetch one.
        ctx = make_context([5, 6], step_time=1.0, fetch_time=2.0)
        sched = prefetch_policy("cost-model").plan(ctx)
        g0, g1 = (i.gate_step for i in sched.issues)
        assert g0 == 2  # start at 3.0, done 5.0 = deadline
        # naive would give g1 = 3 (start 4.0); queueing forces <= 3
        # with dma_free 5.0: start = max(prefix[g+1], 5.0) -> 5+2 > 6
        # for every gate, so it goes ungated and still starts at 5.0.
        assert g1 is None

    def test_zero_step_deadline_is_ungated(self):
        ctx = make_context([0])
        sched = prefetch_policy("cost-model").plan(ctx)
        assert sched.issues[0].gate_step is None


class TestStride:
    def test_linear_stream_speculates_deep(self):
        ctx = make_context(list(range(8)), window=2, stash=8)
        sched = prefetch_policy("stride").plan(ctx)
        # Cold start goes on demand; once the stride locks in, gates
        # run at least 2*window ahead.
        assert sched.issues[0].gate_step is None  # use 0, demand
        deep = [i for i in sched.issues[5:]
                if i.gate_step is None
                or i.site.use_step - i.gate_step >= 4]
        assert len(deep) == len(sched.issues[5:])

    def test_irregular_stream_wastes_bytes(self):
        # Deltas 1,3,1,3,... defeat the single-stride predictor.
        ctx = make_context([0, 1, 4, 5, 8, 9, 12], n_steps=13)
        sched = prefetch_policy("stride").plan(ctx)
        assert sched.wasted_bytes > 0
        assert any(w.label.startswith("mispredict:")
                   for w in sched.waste)

    def test_long_regular_stream_forces_evictions(self):
        ctx = make_context(list(range(40)), window=2, stash=3)
        sched = prefetch_policy("stride").plan(ctx)
        assert sched.evictions > 0
        refetches = [i for i in sched.issues if i.refetch]
        assert len(refetches) == sched.evictions
        # Every evicted tensor is re-fetched on demand.
        assert all(i.gate_step == i.site.use_step - 1
                   for i in refetches)
        # Its first trip is accounted as waste.
        evicted = [w for w in sched.waste
                   if w.label.startswith("evict:")]
        assert len(evicted) == sched.evictions

    def test_waste_is_grouped_by_site(self):
        ctx = make_context([0, 1, 4, 5, 8, 9, 12], n_steps=13)
        sched = prefetch_policy("stride").plan(ctx)
        grouped = sched.waste_before()
        assert sum(len(v) for v in grouped.values()) \
            == len(sched.waste)
        for index, items in grouped.items():
            assert all(w.before_site == index for w in items)


class TestChooseVictim:
    def test_prefers_furthest_future(self):
        residents = [FetchSite("a", 10, 1), FetchSite("b", 30, 1),
                     FetchSite("c", 20, 1)]
        assert choose_victim(residents, frontier=0, window=2) == 1

    def test_never_evicts_live_window(self):
        residents = [FetchSite("a", 5, 1), FetchSite("b", 6, 1)]
        # window 4 around frontier 2 covers steps 3..6: all live.
        assert choose_victim(residents, frontier=2, window=4) is None

    def test_boundary_is_live(self):
        residents = [FetchSite("a", 5, 1)]
        assert choose_victim(residents, frontier=3, window=2) is None
        assert choose_victim(residents, frontier=2, window=2) == 0


def reference_stats(timeline, policy: str,
                    evictions: int) -> PrefetchStats:
    """Plain per-op loop over the scheduled ops: the reference the
    columnar :func:`collect_prefetch_stats` must match exactly."""
    scheduled = timeline.scheduled
    prev_finish: dict = {}
    busy: dict = {"dma": {}, "comm": {}}
    late = jit = early = n_prefetches = prefetch_bytes = wasted = 0
    stall = 0.0
    for entry in scheduled:
        op = entry.op
        slot = (op.engine, op.channel)
        if op.engine is EngineKind.DMA_IN:
            prefetch_bytes += op.nbytes
            wasted += op.nbytes if op.tag.startswith("waste:") else 0
        family = {EngineKind.DMA_IN: "dma", EngineKind.DMA_OUT: "dma",
                  EngineKind.COMM: "comm"}.get(op.engine)
        if family and entry.finish > entry.start:
            busy[family].setdefault(op.channel, []).append(
                (entry.start, entry.finish))
        fetches = [d for d in op.deps
                   if scheduled[d].op.engine is EngineKind.DMA_IN]
        if op.engine is EngineKind.COMPUTE and fetches:
            other = max((scheduled[d].finish for d in op.deps
                         if d not in fetches), default=0.0)
            unblocked = max(prev_finish.get(slot, 0.0), other)
            stall += max(0.0, entry.start - unblocked)
            for d in fetches:
                n_prefetches += 1
                slack = unblocked - scheduled[d].finish
                if slack < 0:
                    late += 1
                elif slack <= scheduled[d].op.duration:
                    jit += 1
                else:
                    early += 1
        prev_finish[slot] = entry.finish
    overlap = 0.0
    for channel, mine in busy["dma"].items():
        for a0, a1 in mine:
            for b0, b1 in busy["comm"].get(channel, ()):
                overlap += max(0.0, min(a1, b1) - max(a0, b0))
    return PrefetchStats(
        policy=policy, n_prefetches=n_prefetches,
        prefetch_bytes=prefetch_bytes, wasted_bytes=wasted,
        evictions=evictions, stall_seconds=stall, late=late, jit=jit,
        early=early,
        hit_rate=(1.0 if n_prefetches == 0
                  else (n_prefetches - late) / n_prefetches),
        contended_seconds=overlap)


class TestStats:
    def _timeline(self):
        """offload -> prefetch -> compute consuming it, plus comm."""
        ops = OpTable()
        off = ops.add(EngineKind.DMA_OUT, 1.0, [], tag="offload:a",
                      nbytes=100)
        pre = ops.add(EngineKind.DMA_IN, 2.0, [off], tag="prefetch:a",
                      nbytes=100)
        ops.add(EngineKind.DMA_IN, 0.5, [], tag="waste:mispredict:b",
                nbytes=40)
        ops.add(EngineKind.COMM, 2.0, [], tag="sync-fwd:x", nbytes=8)
        ops.add(EngineKind.COMPUTE, 1.0, [pre], tag="bwd:a")
        return schedule_ops(ops)

    def test_collect_counts_stall_and_waste(self):
        stats = collect_prefetch_stats(self._timeline(), "stride",
                                       evictions=1)
        assert stats.policy == "stride"
        assert stats.n_prefetches == 1
        assert stats.prefetch_bytes == 140
        assert stats.wasted_bytes == 40
        assert stats.evictions == 1
        # compute was unblocked at t=0 but waited for the prefetch
        # finishing at t=3.
        assert stats.stall_seconds == pytest.approx(3.0)
        assert stats.late == 1 and stats.hit_rate == 0.0
        # DMA busy: offload [0,1], prefetch [1,3], waste [3,3.5]
        # (serialized DMA-in engine); COMM busy [0,2] -> 1s + 1s.
        assert stats.contended_seconds == pytest.approx(2.0)

    def test_no_prefetches_is_a_perfect_hit_rate(self):
        ops = OpTable()
        ops.add(EngineKind.COMPUTE, 1.0, [], tag="fwd:a")
        stats = collect_prefetch_stats(schedule_ops(ops), ON_DEMAND)
        assert stats.n_prefetches == 0
        assert stats.hit_rate == 1.0
        assert stats.stall_seconds == 0.0

    def test_round_trip_is_exact(self):
        stats = collect_prefetch_stats(self._timeline(), "stride",
                                       evictions=1)
        assert PrefetchStats.from_dict(stats.to_dict()) == stats

    def test_histogram_must_cover_prefetches(self):
        with pytest.raises(ValueError, match="histogram"):
            PrefetchStats(policy="x", n_prefetches=2, prefetch_bytes=0,
                          wasted_bytes=0, evictions=0,
                          stall_seconds=0.0, late=1, jit=0, early=0,
                          hit_rate=0.5, contended_seconds=0.0)

    @pytest.mark.parametrize("design,network,strategy,replacements", [
        ("MC-DLA(L)", "GoogLeNet", ParallelStrategy.DATA,
         {"prefetch_policy": "stride"}),
        ("DC-DLA", "GoogLeNet", ParallelStrategy.MODEL,
         {"prefetch_policy": "cost-model"}),
        ("MC-DLA(B)", "GPT2", ParallelStrategy.PIPELINE,
         {"pipeline_stages": 4, "pipeline_schedule": "zb-h1"}),
    ], ids=["stride", "model-parallel", "pipeline"])
    def test_collector_matches_reference_loop(self, design, network,
                                              strategy, replacements):
        config = dataclasses.replace(design_point(design), **replacements)
        timeline = iteration_timeline(config, network, 64, strategy)
        stats = collect_prefetch_stats(timeline, "p", evictions=3)
        assert stats == reference_stats(timeline, "p", evictions=3)
        assert stats.n_prefetches > 0 and stats.contended_seconds > 0

    def test_hit_rate_bounds_enforced(self):
        with pytest.raises(ValueError, match="hit rate"):
            PrefetchStats(policy="x", n_prefetches=1, prefetch_bytes=0,
                          wasted_bytes=0, evictions=0,
                          stall_seconds=0.0, late=0, jit=1, early=0,
                          hit_rate=1.5, contended_seconds=0.0)
