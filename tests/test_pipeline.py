"""Tests for the pipeline-parallel subsystem (repro.pipeline)."""

import dataclasses
import json

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.cli import main as campaign_cli
from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import PipelineStats, SimulationResult
from repro.core.optable import schedule_ops
from repro.core.simulator import iteration_timeline, simulate
from repro.core.timeline import EngineKind
from repro.dnn.graph import weight_owners
from repro.dnn.registry import build_network
from repro.pipeline.lowering import (build_pipeline_ops, pipeline_stats,
                                     plan_pipeline, resolve_stage_count)
from repro.pipeline.partition import (crossing_sends, partition_stages,
                                      stage_of_layer, stageable_layer_count)
from repro.pipeline.schedules import (ScheduleKind, build_schedule,
                                      structural_bubble_time)
from repro.scenarios.dsl import DesignSpec, Scenario, WorkloadSpec
from repro.scenarios.runner import run_scenarios
from repro.training.parallel import ParallelStrategy


def _config(design="MC-DLA(B)", **replacements):
    config = design_point(design)
    return dataclasses.replace(config, **replacements) \
        if replacements else config


class TestPartition:
    def test_stages_are_contiguous_and_cover(self):
        net = build_network("GPT2")
        stages = partition_stages(net, 8)
        flattened = [name for stage in stages
                     for name in stage.layer_names]
        assert flattened == net.layer_names
        assert [s.index for s in stages] == list(range(8))

    def test_stages_balanced_by_macs(self):
        net = build_network("BERT-Large")
        stages = partition_stages(net, 8)
        costs = [sum(net.layer(n).fwd_macs(1) + net.layer(n).bwd_macs(1)
                     for n in stage.layer_names)
                 for stage in stages]
        # A 24-block stack splits 8 ways within ~2x of the mean.
        assert max(costs) <= 2 * (sum(costs) / len(costs))

    def test_every_stage_has_work(self):
        for name in ("AlexNet", "RNN-GRU", "GoogLeNet"):
            net = build_network(name)
            for n_stages in (2, 4, 8):
                for stage in partition_stages(net, n_stages):
                    assert any(net.layer(n).fwd_macs(1)
                               or net.layer(n).stream_elems
                               for n in stage.layer_names), \
                        f"{name}: stage {stage.index} has no work"

    def test_too_many_stages_rejected(self):
        net = build_network("AlexNet")
        with pytest.raises(ValueError, match="stages"):
            partition_stages(net, stageable_layer_count(net) + 1)
        with pytest.raises(ValueError):
            partition_stages(net, 0)

    def test_crossing_sends_point_forward(self):
        net = build_network("GPT2")
        stages = partition_stages(net, 4)
        owner = stage_of_layer(stages)
        sends = crossing_sends(net, stages)
        assert any(sends.values())
        for from_stage, edges in sends.items():
            for producer, to_stage in edges:
                assert owner[producer] == from_stage
                assert to_stage > from_stage


class TestSchedules:
    def test_gpipe_is_all_forward_then_all_backward(self):
        schedule = build_schedule(ScheduleKind.GPIPE, 4, 6)
        for program in schedule.programs:
            kinds = [slot.is_forward for slot in program.slots]
            assert kinds == [True] * 6 + [False] * 6
            assert program.max_in_flight == 6

    def test_1f1b_warmup_and_in_flight_cap(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        for stage, program in enumerate(schedule.programs):
            warmup = 4 - 1 - stage
            head = [slot.is_forward for slot in
                    program.slots[:warmup + 1]]
            assert head == [True] * (warmup + 1)
            assert program.max_in_flight == 4 - stage
            # Every microbatch appears exactly once per direction.
            fwd = sorted(s.microbatch for s in program.slots
                         if s.is_forward)
            bwd = sorted(s.microbatch for s in program.slots
                         if not s.is_forward)
            assert fwd == bwd == list(range(8))

    def test_1f1b_last_stage_alternates(self):
        program = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 4) \
            .program(3)
        kinds = [slot.is_forward for slot in program.slots]
        assert kinds == [True, False] * 4

    def test_stash_slots_shrink_under_1f1b(self):
        gpipe = build_schedule(ScheduleKind.GPIPE, 4, 8)
        one_f = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        for stage in range(4):
            for m in range(8):
                assert one_f.program(stage).stash_slots(m) \
                    <= gpipe.program(stage).stash_slots(m)
        # The loss-side stage turns around immediately under 1F1B.
        assert one_f.program(3).stash_slots(0) == 0
        assert gpipe.program(3).stash_slots(0) == 7

    def test_structural_bubble_formula(self):
        assert structural_bubble_time(4, 1.0, 2.0) == 9.0
        assert structural_bubble_time(1, 1.0, 2.0) == 0.0
        with pytest.raises(ValueError):
            structural_bubble_time(0, 1.0, 2.0)

    def test_degenerate_sizes(self):
        single = build_schedule(ScheduleKind.ONE_F_ONE_B, 1, 3)
        assert single.program(0).max_in_flight == 1
        one_mb = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 1)
        for program in one_mb.programs:
            assert len(program.slots) == 2


class TestLowering:
    def test_plan_shapes(self):
        net = build_network("GPT2")
        config = _config()
        plan = plan_pipeline(net, config, 64)
        assert plan.n_stages == resolve_stage_count(net, config) == 8
        assert plan.microbatch == 8
        assert plan.replicas == 1
        assert len(plan.stages) == 8
        assert all(stage.fwd_time > 0 for stage in plan.stages)
        assert all(stage.bwd_time > stage.fwd_time
                   for stage in plan.stages)

    def test_shared_weights_are_held_by_every_stage_using_them(self):
        # Weight ownership is stage-local: a group whose members span
        # stages puts its buffer (and its drain all-reduce) on every
        # stage holding a member.
        config = _config(pipeline_stages=4)
        rnn = build_network("RNN-GRU")
        cell = rnn.layer("cell_t0").weight_bytes
        assert rnn.weight_bytes() == cell == 190_316_544
        stages = plan_pipeline(rnn, config, 64).stages
        assert [stage.weight_bytes for stage in stages] == [cell] * 4

        gpt2 = build_network("GPT2")
        table = gpt2.layer("embed").weight_bytes
        assert gpt2.layer("lm_head").weight_bytes == table
        stages = plan_pipeline(gpt2, config, 64).stages
        tied = [[layer.name for layer in weight_owners(
            gpt2.layer(name) for name in stage.layer_names)
            if layer.weight_group] for stage in stages]
        assert tied == [["embed"], [], [], ["lm_head"]]
        assert sum(stage.weight_bytes for stage in stages) \
            == gpt2.weight_bytes() + table

    def test_ops_deterministic_and_channelled(self):
        net = build_network("GPT2")
        config = _config()
        plan = plan_pipeline(net, config, 64)
        first = build_pipeline_ops(plan, config)
        second = build_pipeline_ops(plan, config)
        assert [repr(op) for op in first.ops] \
            == [repr(op) for op in second.ops]
        channels = {op.channel for op in first.ops}
        assert channels == set(range(8))
        # Per-channel compute issue order equals the program order.
        program = plan.schedule.program(0)
        tags = [op.tag for op in first.ops
                if op.channel == 0 and op.engine is EngineKind.COMPUTE]
        expected = [("fwd" if slot.is_forward else "bwd")
                    + f":s0:m{slot.microbatch}"
                    for slot in program.slots]
        assert tags == expected

    def test_oracle_emits_no_dma(self):
        net = build_network("GPT2")
        config = design_point("DC-DLA(O)")
        plan = plan_pipeline(net, config, 64)
        ops = build_pipeline_ops(plan, config)
        assert not [op for op in ops.ops
                    if op.engine in (EngineKind.DMA_OUT,
                                     EngineKind.DMA_IN)]

    def test_replicas_all_reduce_at_drain(self):
        net = build_network("GPT2")
        config = _config(pipeline_stages=4)
        plan = plan_pipeline(net, config, 64)
        assert plan.replicas == 2
        ops = build_pipeline_ops(plan, config)
        syncs = [op for op in ops.ops if op.tag.startswith("sync-dw")]
        assert len(syncs) == 4
        # Drain all-reduce is the last op on each stage's timeline.
        timeline = schedule_ops(ops)
        for sync in syncs:
            finish = timeline.finish_of(sync.uid)
            stage_ops = [s for s in timeline.scheduled
                         if s.op.channel == sync.channel]
            assert finish == max(s.finish for s in stage_ops)

    def test_1f1b_offloads_less_than_gpipe(self):
        net = build_network("GPT2")
        plan_1f = plan_pipeline(net, _config(), 64)
        plan_gp = plan_pipeline(
            net, _config(pipeline_schedule="gpipe"), 64)
        assert sum(plan_1f.stage_offload_bytes) \
            < sum(plan_gp.stage_offload_bytes)
        # The loss-side stage stays fully resident under 1F1B.
        assert plan_1f.stage_offload_bytes[-1] == 0
        assert plan_gp.stage_offload_bytes[-1] > 0

    def test_unknown_schedule_rejected(self):
        net = build_network("GPT2")
        with pytest.raises(ValueError):
            plan_pipeline(net, _config(pipeline_schedule="zigzag"), 64)

    def test_indivisible_batch_rejected(self):
        net = build_network("GPT2")
        with pytest.raises(ValueError, match="divisible"):
            plan_pipeline(net, _config(pipeline_microbatches=8), 60)

    def test_boundary_traffic_aggregates_per_stage_pair(self):
        # A mid-block cut crosses both the residual and the block
        # output; the pair must bundle into ONE transfer per direction
        # so forward and backward p2p traffic stay symmetric.
        net = build_network("GPT2")
        config = _config()
        plan = plan_pipeline(net, config, 64)
        for stage in plan.stages:
            targets = [to for to, _ in stage.sends]
            assert len(targets) == len(set(targets))
        ops = build_pipeline_ops(plan, config)
        acts = [op for op in ops.ops
                if op.tag.startswith("send-act")]
        grads = [op for op in ops.ops
                 if op.tag.startswith("send-grad")]
        assert len(acts) == len(grads)
        assert sum(op.nbytes for op in acts) \
            == sum(op.nbytes for op in grads)
        # The plan's sync accounting matches the emitted ops exactly.
        assert sum(op.nbytes for op in acts + grads) \
            == plan.sync_bytes_per_iteration


class TestSimulatePipeline:
    @pytest.mark.parametrize("design", DESIGN_ORDER)
    def test_runs_on_every_design_point(self, design):
        result = simulate(design_point(design), "GPT2", 64,
                          ParallelStrategy.PIPELINE)
        assert result.iteration_time > 0
        assert result.strategy is ParallelStrategy.PIPELINE
        stats = result.pipeline
        assert stats is not None
        assert stats.n_stages == 8
        assert 0.0 <= stats.bubble_fraction < 1.0
        assert len(stats.stage_bubble) == 8

    @pytest.mark.parametrize("design", DESIGN_ORDER)
    @pytest.mark.parametrize("microbatches", (4, 8))
    def test_1f1b_strictly_lower_bubble_than_gpipe(self, design,
                                                   microbatches):
        one_f = simulate(
            _config(design, pipeline_microbatches=microbatches,
                    pipeline_schedule="1f1b"),
            "GPT2", 64, ParallelStrategy.PIPELINE)
        gpipe = simulate(
            _config(design, pipeline_microbatches=microbatches,
                    pipeline_schedule="gpipe"),
            "GPT2", 64, ParallelStrategy.PIPELINE)
        assert one_f.pipeline.bubble_time < gpipe.pipeline.bubble_time
        assert one_f.pipeline.bubble_fraction \
            < gpipe.pipeline.bubble_fraction

    def test_pipeline_beats_flat_strategies_on_transformers(self):
        config = design_point("DC-DLA")
        piped = simulate(config, "GPT2", 64, ParallelStrategy.PIPELINE)
        flat = simulate(config, "GPT2", 64, ParallelStrategy.DATA)
        assert piped.iteration_time < flat.iteration_time

    def test_in_flight_depth_governs_footprint(self):
        one_f = simulate(_config(), "GPT2", 64,
                         ParallelStrategy.PIPELINE)
        gpipe = simulate(_config(pipeline_schedule="gpipe"), "GPT2", 64,
                         ParallelStrategy.PIPELINE)
        assert max(one_f.pipeline.stage_max_in_flight) <= 8
        assert all(depth == 8
                   for depth in gpipe.pipeline.stage_max_in_flight)

    def test_cnn_and_rnn_workloads_also_pipeline(self):
        for network in ("AlexNet", "RNN-GEMV"):
            result = simulate(design_point("DC-DLA"), network, 64,
                              ParallelStrategy.PIPELINE)
            assert result.pipeline is not None
            assert result.iteration_time > 0

    def test_partition_rejects_pipeline_strategy(self):
        from repro.training.parallel import partition
        with pytest.raises(ValueError, match="pipeline"):
            partition(build_network("AlexNet"), 64,
                      ParallelStrategy.PIPELINE, 8)

    def test_stats_via_iteration_timeline(self):
        net = build_network("GPT2")
        config = _config()
        timeline = iteration_timeline(config, net, 64,
                                      ParallelStrategy.PIPELINE)
        stats = pipeline_stats(plan_pipeline(net, config, 64), timeline)
        result = simulate(config, net, 64, ParallelStrategy.PIPELINE)
        assert stats == result.pipeline


class TestPipelineSerialization:
    def test_round_trip_is_exact(self):
        result = simulate(_config(), "GPT2", 64,
                          ParallelStrategy.PIPELINE)
        replayed = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert replayed == result
        assert replayed.pipeline == result.pipeline

    def test_absent_pipeline_field_reads_as_none(self):
        result = simulate(_config(), "AlexNet", 64,
                          ParallelStrategy.DATA)
        data = result.to_dict()
        assert data["pipeline"] is None
        assert SimulationResult.from_dict(data).pipeline is None
        # Entries written before the field existed still load.
        del data["pipeline"]
        assert SimulationResult.from_dict(data).pipeline is None

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            PipelineStats(schedule="1f1b", n_stages=2, n_microbatches=4,
                          microbatch=8, replicas=1,
                          stage_compute=(1.0,), stage_bubble=(0.5, 0.5),
                          stage_offload_bytes=(0, 0),
                          stage_max_in_flight=(2, 1))


class TestPipelineCampaign:
    def test_cells_cache_and_replay_byte_identically(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenarios = {
            (design, schedule): Scenario(
                name=f"{design}|{schedule}", system=DesignSpec(design),
                workload=WorkloadSpec("GPT2", batch=64,
                                      strategy="pipeline",
                                      schedule=schedule))
            for schedule in ("1f1b", "gpipe")
            for design in ("DC-DLA", "MC-DLA(B)")}
        first = run_scenarios(scenarios, cache=cache)
        replay = run_scenarios(scenarios, cache=cache)
        assert all(o.cached for o in replay.values())
        for key, outcome in replay.items():
            assert outcome.result == first[key].result
            assert outcome.result.pipeline is not None, key

    def test_schedule_variants_coexist(self, capsys):
        code = campaign_cli([
            "--designs", "DC-DLA", "--networks", "GPT2",
            "--strategies", "pipeline", "--batches", "64",
            "--pipeline-schedules", "1f1b,gpipe", "--no-cache",
            "--format", "json", "--quiet"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        schedules = {r["design"]: r["pipeline"]["schedule"]
                     for r in rows}
        assert schedules == {"DC-DLA|1f1b": "1f1b",
                             "DC-DLA|gpipe": "gpipe"}

    def test_cli_pipeline_strategy(self, capsys):
        code = campaign_cli([
            "--designs", "MC-DLA(B)", "--networks", "GPT2",
            "--strategies", "pipeline", "--batches", "64",
            "--pipeline-schedules", "1f1b,gpipe", "--no-cache",
            "--format", "json", "--quiet"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        for row in rows:
            assert row["strategy"] == "pipeline-parallel"
            assert 0.0 < row["bubble_fraction"] < 1.0
            assert row["pipeline"]["n_stages"] == 8

    def test_cli_rejects_bad_schedule(self, capsys):
        assert campaign_cli(["--strategies", "pipeline",
                             "--pipeline-schedules", "zigzag"]) == 2
        assert "unknown schedule" in capsys.readouterr().err

    def test_cli_json_bubble_fraction_is_null_for_flat_rows(self,
                                                            capsys):
        code = campaign_cli([
            "--designs", "DC-DLA", "--networks", "AlexNet",
            "--strategies", "data", "--no-cache", "--format", "json",
            "--quiet"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["bubble_fraction"] is None
        assert rows[0]["pipeline"] is None

    def test_cli_accepts_transformer_networks(self, capsys):
        code = campaign_cli([
            "--designs", "DC-DLA(O)", "--networks", "BERT-Large",
            "--strategies", "data", "--batches", "16", "--no-cache",
            "--format", "csv", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BERT-Large" in out


class TestPipelineExperiment:
    def test_comparison_emits_all_cells(self, tmp_path):
        from repro.experiments.pipeline_comparison import (
            VARIANTS, format_pipeline_comparison,
            run_pipeline_comparison)
        study = run_pipeline_comparison(
            batch=32, microbatches=4,
            cache=ResultCache(tmp_path / "cache"))
        for network in ("BERT-Large", "GPT2"):
            for design in DESIGN_ORDER:
                for variant in VARIANTS:
                    assert study.result(network, design, variant) \
                        .iteration_time > 0
                assert study.schedule_gap(network, design) > 0
        text = format_pipeline_comparison(study)
        assert "bubble" in text
        assert "pipeline/1f1b" in text
