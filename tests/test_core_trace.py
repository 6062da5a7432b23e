"""Tests for the timeline trace exporter and bar renderers."""

import dataclasses
import json

import pytest

from repro.core.design_points import dc_dla, design_point
from repro.core.optable import OpTable, schedule_ops
from repro.core.schedule import build_iteration_ops, plan_iteration
from repro.core.simulator import iteration_timeline, simulate
from repro.core.timeline import EngineKind
from repro.core.trace import (TAG_CATEGORIES, engine_utilization,
                              register_tag_category, tag_category,
                              to_chrome_trace, to_records)
from repro.dnn.registry import build_network
from repro.experiments.report import format_bars, format_stacked_bars
from repro.training.parallel import ParallelStrategy


@pytest.fixture(scope="module")
def alexnet_timeline():
    config = dc_dla()
    plan = plan_iteration(build_network("AlexNet"), config, 64,
                          ParallelStrategy.DATA)
    return schedule_ops(build_iteration_ops(plan, config))


@pytest.fixture(scope="module")
def pipeline_timeline():
    return iteration_timeline(design_point("MC-DLA(B)"), "GPT2", 64,
                              ParallelStrategy.PIPELINE)


class TestRecords:
    def test_records_sorted_and_complete(self, alexnet_timeline):
        records = to_records(alexnet_timeline)
        assert len(records) == len(alexnet_timeline.scheduled)
        starts = [r["start"] for r in records]
        assert starts == sorted(starts)
        first = records[0]
        assert set(first) == {"uid", "tag", "engine", "channel",
                              "start", "finish", "duration", "nbytes"}
        assert first["channel"] == 0  # SPMD timelines stay on channel 0

    def test_durations_consistent(self, alexnet_timeline):
        for r in to_records(alexnet_timeline):
            assert r["finish"] == pytest.approx(r["start"]
                                                + r["duration"])


class TestChromeTrace:
    def test_valid_json_with_all_engines(self, alexnet_timeline):
        doc = json.loads(to_chrome_trace(alexnet_timeline))
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(metadata) == 4  # one row per engine
        slices = [e for e in events if e["ph"] == "X"]
        assert slices, "no duration events exported"
        for event in slices:
            assert event["dur"] > 0
            assert event["cat"] in ("compute", "migration",
                                    "collective", "other")

    def test_categories_assigned_by_tag(self, alexnet_timeline):
        doc = json.loads(to_chrome_trace(alexnet_timeline))
        by_cat = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_cat.setdefault(e["cat"], []).append(e["name"])
        assert any(n.startswith("fwd:") for n in by_cat["compute"])
        assert any(n.startswith("offload:")
                   for n in by_cat["migration"])
        assert any(n.startswith("sync-bwd:")
                   for n in by_cat["collective"])

    def test_timestamps_in_microseconds(self, alexnet_timeline):
        doc = json.loads(to_chrome_trace(alexnet_timeline))
        longest = max((e for e in doc["traceEvents"] if e["ph"] == "X"),
                      key=lambda e: e["ts"] + e["dur"])
        assert longest["ts"] + longest["dur"] == pytest.approx(
            alexnet_timeline.makespan * 1e6, rel=1e-6)


class TestCategories:
    def test_known_prefixes(self):
        assert tag_category("fwd:conv1") == "compute"
        assert tag_category("offload:conv1") == "migration"
        assert tag_category("sync-dw:s3") == "collective"
        assert tag_category("send-act:s0>s1:m2") == "pipeline"
        assert tag_category("send-grad:s1>s0:m2") == "pipeline"
        assert tag_category("bubble:s4") == "bubble"

    def test_unknown_prefix_falls_back_to_other(self):
        assert tag_category("warp-drive:x") == "other"
        with pytest.raises(KeyError, match="register_tag_category"):
            tag_category("warp-drive:x", strict=True)

    def test_register_tag_category(self):
        register_tag_category("zb-w", "compute")
        try:
            assert tag_category("zb-w:s0:m1", strict=True) == "compute"
        finally:
            del TAG_CATEGORIES["zb-w"]

    def test_register_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            register_tag_category("has:colon", "compute")
        with pytest.raises(ValueError):
            register_tag_category("", "compute")
        with pytest.raises(ValueError):
            register_tag_category("ok", "")


class TestPipelineTrace:
    def test_rows_per_stage(self, pipeline_timeline):
        doc = json.loads(to_chrome_trace(pipeline_timeline))
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(metadata) == 8 * 4  # 8 stages x 4 engines
        names = {e["args"]["name"] for e in metadata}
        assert "stage0/compute" in names
        assert "stage7/dma-in" in names

    def test_pipeline_categories_present(self, pipeline_timeline):
        doc = json.loads(to_chrome_trace(pipeline_timeline))
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"compute", "migration", "pipeline"} <= cats
        assert "other" not in cats

    def test_bubble_events_fill_compute_gaps(self, pipeline_timeline):
        doc = json.loads(to_chrome_trace(pipeline_timeline,
                                         include_bubbles=True))
        bubbles = [e for e in doc["traceEvents"]
                   if e["cat"] == "bubble"]
        assert bubbles
        assert all(e["dur"] > 0 for e in bubbles)
        plain = json.loads(to_chrome_trace(pipeline_timeline))
        assert not [e for e in plain["traceEvents"]
                    if e["cat"] == "bubble"]

    def test_fleet_average_utilization_bounded(self, pipeline_timeline):
        util = engine_utilization(pipeline_timeline)
        for fraction in util.values():
            assert 0.0 <= fraction <= 1.0 + 1e-9


class TestTraceCli:
    def test_writes_trace_json(self, tmp_path, capsys):
        from repro.__main__ import main
        out = tmp_path / "iter.trace.json"
        code = main(["trace", "MC-DLA(B)", "GPT2", "--batch", "32",
                     "--strategy", "pipeline", "-o", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert any(e["cat"] == "bubble" for e in doc["traceEvents"])

    def test_rejects_unknown_design_and_network(self, capsys):
        from repro.__main__ import main
        assert main(["trace", "NOPE", "GPT2"]) == 2
        assert "unknown design" in capsys.readouterr().err
        assert main(["trace", "DC-DLA", "NOPE"]) == 2
        assert "unknown network" in capsys.readouterr().err


class TestTraceEqualsSimulate:
    """The exported timeline is the very one ``simulate()`` priced."""

    @pytest.mark.parametrize("network,batch,strategy,replacements", [
        ("VGG-E", 64, ParallelStrategy.DATA, {"fault_model": "storm"}),
        ("GPT2", 64, ParallelStrategy.PIPELINE,
         {"pipeline_stages": 4, "pipeline_schedule": "zb-auto"}),
        ("GoogLeNet", 128, ParallelStrategy.DATA,
         {"prefetch_policy": "clairvoyant"}),
    ], ids=["storm", "zb-auto", "clairvoyant"])
    def test_makespan_is_iteration_time(self, network, batch, strategy,
                                        replacements):
        config = dataclasses.replace(design_point("MC-DLA(B)"),
                                     **replacements)
        timeline = iteration_timeline(config, network, batch, strategy)
        result = simulate(config, network, batch, strategy)
        assert timeline.makespan == result.iteration_time

    def test_telemetry_trace_schedules_once(self, tmp_path, monkeypatch,
                                            capsys):
        from repro.__main__ import main
        from repro.core import simulator
        calls = []
        real = simulator.schedule_ops

        def counting(table):
            calls.append(len(table))
            return real(table)

        monkeypatch.setattr(simulator, "schedule_ops", counting)
        assert main(["trace", "MC-DLA(B)", "AlexNet", "--telemetry",
                     "-o", str(tmp_path / "once.trace.json")]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestUtilization:
    def test_fractions_bounded(self, alexnet_timeline):
        util = engine_utilization(alexnet_timeline)
        assert set(util) == {e.value for e in EngineKind}
        for fraction in util.values():
            assert 0.0 <= fraction <= 1.0 + 1e-9

    def test_dc_dla_is_dma_bound(self, alexnet_timeline):
        util = engine_utilization(alexnet_timeline)
        assert util["dma-out"] > util["comm"]

    def test_empty_timeline(self):
        util = engine_utilization(schedule_ops(OpTable()))
        assert all(v == 0.0 for v in util.values())

    def test_per_channel_matches_fleet_average(self, pipeline_timeline):
        per = engine_utilization(pipeline_timeline, per_channel=True)
        channels = pipeline_timeline.channels
        assert set(per) == {f"{engine.value}[{channel}]"
                            for channel in channels
                            for engine in EngineKind}
        fleet = engine_utilization(pipeline_timeline)
        for engine in EngineKind:
            mean = (sum(per[f"{engine.value}[{c}]"] for c in channels)
                    / len(channels))
            assert mean == pytest.approx(fleet[engine.value])

    def test_per_channel_spmd_collapses_to_fleet(self,
                                                 alexnet_timeline):
        per = engine_utilization(alexnet_timeline, per_channel=True)
        fleet = engine_utilization(alexnet_timeline)
        assert per == {f"{engine.value}[0]": fleet[engine.value]
                       for engine in EngineKind}

    def test_per_channel_empty_timeline(self):
        per = engine_utilization(schedule_ops(OpTable()),
                                 per_channel=True)
        assert all(v == 0.0 for v in per.values())


class TestBarRenderers:
    def test_format_bars(self):
        out = format_bars(["a", "bb"], [1.0, 0.5], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_format_bars_validation(self):
        with pytest.raises(ValueError):
            format_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            format_bars(["a"], [-1.0])
        with pytest.raises(ValueError):
            format_bars(["a"], [1.0], width=0)

    def test_format_stacked_bars(self):
        out = format_stacked_bars(["x"], [[0.5, 0.25, 0.25]], width=8)
        line = out.splitlines()[-1]
        assert line.count("#") == 4
        assert line.count("=") == 2
        assert line.count("~") == 2

    def test_format_stacked_bars_validation(self):
        with pytest.raises(ValueError):
            format_stacked_bars(["x"], [[1.0] * 5])
        with pytest.raises(ValueError):
            format_stacked_bars(["x", "y"], [[1.0]])
