"""Zero-bubble pipeline schedules: B/W split, virtual stages, auto
search, and the end-to-end claim that deferred weight-grad work fills
the 1F1B bubbles."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pricing
from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import PipelineStats, SimulationResult
from repro.core.simulator import iteration_timeline, simulate
from repro.core.timeline import EngineKind
from repro.core.trace import tag_category, to_chrome_trace
from repro.dnn.layers import LayerKind
from repro.dnn.registry import build_network
from repro.naming import resolve_schedule
from repro.pipeline import (OpKind, ScheduleCosts, ScheduleKind, Slot,
                            build_schedule, evaluate_makespan,
                            parse_schedule_kind, pipeline_stats,
                            plan_pipeline, structural_bubble_time)
from repro.scenarios.paper import zero_bubble_suite
from repro.scenarios.runner import run_suite
from repro.training.parallel import ParallelStrategy

SPLIT_KINDS = (ScheduleKind.ZB_H1, ScheduleKind.INTERLEAVED,
               ScheduleKind.ZB_AUTO)


def _config(design="MC-DLA(B)", **replacements):
    config = design_point(design)
    return dataclasses.replace(config, **replacements) \
        if replacements else config


def _unit_costs(n_stages: int) -> ScheduleCosts:
    return ScheduleCosts(
        t_fwd=(1.0,) * n_stages, t_bwd=(1.0,) * n_stages,
        t_wgrad=(0.5,) * n_stages,
        send_fwd=(0.0,) * n_stages, send_bwd=(0.0,) * n_stages)


class TestKindsAndNaming:
    def test_aliases_resolve_to_canonical_kinds(self):
        assert parse_schedule_kind("zb") is ScheduleKind.ZB_H1
        assert parse_schedule_kind("zero-bubble") is ScheduleKind.ZB_H1
        assert parse_schedule_kind("auto") is ScheduleKind.ZB_AUTO
        assert parse_schedule_kind("vpp") is ScheduleKind.INTERLEAVED
        assert parse_schedule_kind("fill-drain") is ScheduleKind.GPIPE
        assert parse_schedule_kind("1f1b") is ScheduleKind.ONE_F_ONE_B
        assert resolve_schedule("ZB") == "zb-h1"
        assert resolve_schedule("interleaved") == "interleaved"

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="zb-h1"):
            parse_schedule_kind("zigzag")
        with pytest.raises(KeyError, match="zb-auto"):
            resolve_schedule("zigzag")

    def test_split_and_chunk_flags(self):
        for kind in SPLIT_KINDS:
            assert kind.splits_wgrad
        assert not ScheduleKind.GPIPE.splits_wgrad
        assert not ScheduleKind.ONE_F_ONE_B.splits_wgrad
        assert ScheduleKind.INTERLEAVED.virtual_chunks == 2
        assert ScheduleKind.ZB_H1.virtual_chunks == 1

    def test_slot_kind_consistency(self):
        assert Slot(0, True).kind is OpKind.F
        assert Slot(0, False).kind is OpKind.B
        assert Slot(0, False, OpKind.W).kind is OpKind.W
        with pytest.raises(ValueError, match="inconsistent"):
            Slot(0, True, OpKind.B)
        with pytest.raises(ValueError, match="inconsistent"):
            Slot(0, False, OpKind.F)


class TestZeroBubblePrograms:
    @pytest.mark.parametrize("n_stages,n_mb", [(4, 8), (3, 5), (8, 8)])
    def test_zb_h1_is_1f1b_plus_w_filler(self, n_stages, n_mb):
        """Stripping the W slots recovers the exact 1F1B skeleton."""
        zb = build_schedule(ScheduleKind.ZB_H1, n_stages, n_mb)
        one_f = build_schedule(ScheduleKind.ONE_F_ONE_B, n_stages, n_mb)
        for stage in range(n_stages):
            skeleton = tuple(s for s in zb.program(stage).slots
                             if s.kind is not OpKind.W)
            assert skeleton == one_f.program(stage).slots

    def test_w_retires_every_microbatch_after_its_b(self):
        schedule = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        for program in schedule.programs:
            ws = sorted(s.microbatch for s in program.slots
                        if s.kind is OpKind.W)
            assert ws == list(range(8))
            for m in range(8):
                assert program.kind_index(m, OpKind.W) \
                    > program.kind_index(m, OpKind.B)

    def test_memory_stays_at_the_1f1b_bound(self):
        zb = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        one_f = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        for stage in range(4):
            warmup = min(4 - 1 - stage, 8)
            assert zb.program(stage).max_in_flight \
                == one_f.program(stage).max_in_flight
            assert zb.program(stage).max_w_backlog <= warmup + 1

    def test_stash_slots_discount_w_filler(self):
        """W slots between a microbatch's F and B are short filler and
        must not age the stash (offload decisions match 1F1B)."""
        zb = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        one_f = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        for stage in range(4):
            for m in range(8):
                assert zb.program(stage).stash_slots(m) \
                    == one_f.program(stage).stash_slots(m)

    def test_auto_search_never_worse_than_zb_h1(self):
        for n_stages, n_mb in [(4, 8), (6, 12), (3, 4)]:
            costs = _unit_costs(n_stages)
            auto = build_schedule(ScheduleKind.ZB_AUTO, n_stages, n_mb,
                                  costs)
            h1 = build_schedule(ScheduleKind.ZB_H1, n_stages, n_mb)
            assert evaluate_makespan(auto.programs, costs) \
                <= evaluate_makespan(h1.programs, costs)

    def test_auto_without_costs_falls_back_to_zb_h1(self):
        auto = build_schedule(ScheduleKind.ZB_AUTO, 4, 8)
        h1 = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        assert [p.slots for p in auto.programs] \
            == [p.slots for p in h1.programs]

    def test_evaluate_makespan_detects_deadlock(self):
        from repro.pipeline.schedules import StageProgram
        # Stage 0 waits on a grad that stage 1 never produces first.
        programs = (
            StageProgram(stage=0, slots=(Slot(0, False), Slot(0, True))),
            StageProgram(stage=1, slots=(Slot(0, True), Slot(0, False))),
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            evaluate_makespan(programs, _unit_costs(2))

    def test_structural_bound_drops_with_wgrad_split(self):
        base = structural_bubble_time(4, 1.0, 2.0)
        split = structural_bubble_time(4, 1.0, 2.0, t_wgrad=0.5)
        assert base == 9.0
        assert split == 6.0
        # Floored at zero when W work exceeds the fill/drain idle.
        assert structural_bubble_time(4, 1.0, 2.0, t_wgrad=2.0) == 0.0


schedule_cases = given(
    kind=st.sampled_from(ScheduleKind),
    n_stages=st.integers(min_value=1, max_value=6),
    n_mb=st.integers(min_value=1, max_value=10))


class TestScheduleProperties:
    @settings(max_examples=60, deadline=None)
    @schedule_cases
    def test_f_precedes_b_precedes_w(self, kind, n_stages, n_mb):
        schedule = build_schedule(kind, n_stages, n_mb)
        for program in schedule.programs:
            for m in range(n_mb):
                fwd = program.kind_index(m, OpKind.F)
                bwd = program.kind_index(m, OpKind.B)
                assert fwd < bwd
                if program.has_wgrad:
                    assert bwd < program.kind_index(m, OpKind.W)

    @settings(max_examples=60, deadline=None)
    @schedule_cases
    def test_each_microbatch_once_per_kind(self, kind, n_stages, n_mb):
        schedule = build_schedule(kind, n_stages, n_mb)
        for program in schedule.programs:
            by_kind = {OpKind.F: [], OpKind.B: [], OpKind.W: []}
            for slot in program.slots:
                by_kind[slot.kind].append(slot.microbatch)
            assert sorted(by_kind[OpKind.F]) == list(range(n_mb))
            assert sorted(by_kind[OpKind.B]) == list(range(n_mb))
            expected_w = list(range(n_mb)) if kind.splits_wgrad else []
            assert sorted(by_kind[OpKind.W]) == expected_w

    @settings(max_examples=60, deadline=None)
    @schedule_cases
    def test_stash_slots_count_non_w_work_between(self, kind, n_stages,
                                                  n_mb):
        schedule = build_schedule(kind, n_stages, n_mb)
        for program in schedule.programs:
            for m in range(n_mb):
                fwd = program.slot_index(m, True)
                bwd = program.slot_index(m, False)
                between = [s for s in program.slots[fwd + 1:bwd]
                           if s.kind is not OpKind.W]
                assert program.stash_slots(m) == len(between)

    @settings(max_examples=60, deadline=None)
    @schedule_cases
    def test_in_flight_stays_under_declared_cap(self, kind, n_stages,
                                                n_mb):
        schedule = build_schedule(kind, n_stages, n_mb)
        for stage, program in enumerate(schedule.programs):
            live = peak = 0
            for slot in program.slots:
                if slot.kind is OpKind.F:
                    live += 1
                elif slot.kind is OpKind.B:
                    live -= 1
                peak = max(peak, live)
            assert program.max_in_flight == peak <= n_mb
            if kind is not ScheduleKind.GPIPE:
                assert peak <= max(1, min(n_stages - stage, n_mb))

    @settings(max_examples=60, deadline=None)
    @schedule_cases
    def test_dependency_graph_is_acyclic(self, kind, n_stages, n_mb):
        """The analytic evaluator drains every slot (no deadlock) and
        the makespan covers the busiest stage."""
        schedule = build_schedule(kind, n_stages, n_mb)
        costs = _unit_costs(n_stages)
        span = evaluate_makespan(schedule.programs, costs)
        per_stage = []
        for program in schedule.programs:
            work = sum({OpKind.F: 1.0, OpKind.B: 1.0,
                        OpKind.W: 0.5}[s.kind] for s in program.slots)
            per_stage.append(work)
        assert span >= max(per_stage) - 1e-12


class TestBubbleInvariant:
    def _plan(self):
        return plan_pipeline(build_network("GPT2"), _config(), 64)

    def test_overcounted_compute_raises(self):
        plan = self._plan()

        class OverTimeline:
            makespan = 1.0

            def busy_time(self, engine, channel):
                return 2.0

        with pytest.raises(RuntimeError, match="over-counted"):
            pipeline_stats(plan, OverTimeline())

    def test_float_jitter_clamps_to_zero_bubble(self):
        plan = self._plan()

        class JitterTimeline:
            makespan = 1.0

            def busy_time(self, engine, channel):
                return 1.0 + 1e-12  # inside the 1e-9 tolerance

        stats = pipeline_stats(plan, JitterTimeline())
        assert all(b == 0.0 for b in stats.stage_bubble)


class TestSplitTiming:
    def test_split_conserves_total_backward(self):
        net = build_network("GPT2")
        device = design_point("DC-DLA").device
        checked = 0
        for name in net.layer_names:
            layer = net.layer(name)
            if layer.kind is LayerKind.INPUT:
                continue
            dx, dw = device.layer_bwd_split_time(layer, 8)
            total = device.layer_bwd_time(layer, 8)
            assert dx + dw == pytest.approx(total, rel=1e-12)
            if layer.bwd_gemms(8):
                assert dx > 0
                checked += 1
            else:
                # Streaming backward has no deferrable dW component.
                assert dw == 0.0
        assert checked > 0

    def test_pricing_memo_matches_device(self):
        net = build_network("GPT2")
        device = design_point("DC-DLA").device
        layer = next(net.layer(n) for n in net.layer_names
                     if net.layer(n).weight_elems)
        first = pricing.layer_bwd_split_time(device, layer, 8)
        second = pricing.layer_bwd_split_time(device, layer, 8)
        assert first == second == device.layer_bwd_split_time(layer, 8)


class TestZeroBubbleSimulation:
    @pytest.mark.parametrize("design", DESIGN_ORDER)
    def test_zb_auto_strictly_beats_1f1b(self, design):
        zb = simulate(_config(design, pipeline_schedule="zb-auto"),
                      "GPT2", 64, ParallelStrategy.PIPELINE)
        one_f = simulate(_config(design, pipeline_schedule="1f1b"),
                         "GPT2", 64, ParallelStrategy.PIPELINE)
        assert zb.pipeline.bubble_fraction \
            < one_f.pipeline.bubble_fraction
        assert zb.iteration_time <= one_f.iteration_time

    def test_wgrad_accounting_surfaces_in_stats(self):
        zb = simulate(_config(pipeline_schedule="zb-h1"), "GPT2", 64,
                      ParallelStrategy.PIPELINE)
        assert zb.pipeline.schedule == "zb-h1"
        assert len(zb.pipeline.stage_wgrad) == zb.pipeline.n_stages
        assert zb.pipeline.wgrad_time > 0
        assert 0.0 < zb.pipeline.wgrad_fill_fraction <= 1.0
        one_f = simulate(_config(), "GPT2", 64,
                         ParallelStrategy.PIPELINE)
        assert one_f.pipeline.stage_wgrad == ()
        assert one_f.pipeline.wgrad_time == 0.0
        assert one_f.pipeline.wgrad_fill_fraction == 0.0

    def test_interleaved_hosts_two_virtual_stages_per_device(self):
        net = build_network("GPT2")
        config = _config(pipeline_schedule="interleaved")
        plan = plan_pipeline(net, config, 64)
        assert plan.chunks == 2
        assert plan.n_channels == 8
        assert plan.n_stages == 16
        assert {plan.channel_of(s.index)
                for s in plan.stages} == set(range(8))
        result = simulate(config, net, 64, ParallelStrategy.PIPELINE)
        # Stats rows are physical devices, not virtual stages.
        assert result.pipeline.n_stages == 8

    def test_interleaved_degrades_on_shallow_networks(self):
        net = build_network("AlexNet")
        config = _config(pipeline_schedule="interleaved",
                         pipeline_stages=4)
        plan = plan_pipeline(net, config, 64)
        assert plan.chunks in (1, 2)
        result = simulate(config, net, 64, ParallelStrategy.PIPELINE)
        assert result.iteration_time > 0

    def test_auto_search_validated_by_replay(self):
        """The found slot ordering must also win when replayed through
        the real simulator, not only under the analytic cost model."""
        auto = simulate(_config("DC-DLA", pipeline_schedule="zb-auto"),
                        "BERT-Large", 64, ParallelStrategy.PIPELINE)
        h1 = simulate(_config("DC-DLA", pipeline_schedule="zb-h1"),
                      "BERT-Large", 64, ParallelStrategy.PIPELINE)
        assert auto.iteration_time <= h1.iteration_time * (1 + 1e-9)

    def test_serialization_round_trip(self):
        result = simulate(_config(pipeline_schedule="zb-h1"), "GPT2",
                          64, ParallelStrategy.PIPELINE)
        data = json.loads(json.dumps(result.to_dict()))
        assert SimulationResult.from_dict(data) == result
        assert "stage_wgrad" in data["pipeline"]

    def test_legacy_stats_dicts_still_load(self):
        result = simulate(_config(), "GPT2", 64,
                          ParallelStrategy.PIPELINE)
        data = result.pipeline.to_dict()
        assert "stage_wgrad" not in data  # legacy byte-identity
        assert PipelineStats.from_dict(data).stage_wgrad == ()

    def test_trace_tags_wgrad_as_compute(self):
        timeline = iteration_timeline(
            _config(pipeline_schedule="zb-h1"), "GPT2", 64,
            ParallelStrategy.PIPELINE)
        wgrads = [s.op for s in timeline.scheduled
                  if s.op.tag.startswith("wgrad:")]
        assert wgrads
        assert all(s.op.engine is EngineKind.COMPUTE for s in
                   timeline.scheduled if s.op.tag.startswith("wgrad:"))
        assert tag_category("wgrad:s0:m0", strict=True) == "compute"
        trace = json.loads(to_chrome_trace(timeline,
                                           include_bubbles=True))
        assert any(e.get("name", "").startswith("wgrad:")
                   for e in trace["traceEvents"])


class TestZeroBubbleGolden:
    def test_study_scalars_and_claims(self, golden):
        report = run_suite(zero_bubble_suite())
        headline = report.verdict("zero-bubble-beats-1f1b")
        assert headline.ok, headline.detail
        assert report.ok, report.summary()
        golden.check("zb_pipeline", report.scalars())
