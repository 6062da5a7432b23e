"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
from types import SimpleNamespace

import pytest

import perfbench
from perfbench import run, timing, workloads
from perfbench.tracer import (Span, Target, Tracer, layer_stats,
                              outermost, self_times)

perfbench.add_source_tree()


# -- percentiles and the sample-count rule ------------------------------

def test_tail_needs_ten_samples_beyond():
    assert timing.samples_beyond(100, 0.9) == 10
    assert timing.samples_beyond(96, 0.9) == 9      # one grid pass
    assert timing.samples_beyond(192, 0.9) == 19    # two grid passes
    assert not timing.enough_samples(96, 0.9)
    with pytest.raises(ValueError, match="only 9 beyond"):
        timing.percentile(range(96), 0.9)
    assert timing.percentile(range(100), 0.9) == pytest.approx(89.1,
                                                               abs=0.5)


def test_cell_latencies_are_gaps_between_stamps_only():
    # Three stamps give two samples: the stretch before the first stamp
    # is left out, and each gap is scaled to the reference speed.
    assert run.cell_latencies([10.0, 10.5, 12.0], 2.0) == [1.0, 3.0]
    assert run.cell_latencies([10.0], 2.0) == []


def test_harrell_davis_is_centred_and_smooth_across_a_gap():
    assert timing.harrell_davis(range(1, 102), 0.5) == pytest.approx(51)
    # 90 fast cells and 10 slow ones: nearest rank flips from 1 to 50
    # when one cell crosses; the estimate moves by far less.
    before = [1.0] * 90 + [50.0] * 10
    after = [1.0] * 89 + [50.0] * 11
    jump = (timing.harrell_davis(after, 0.9)
            - timing.harrell_davis(before, 0.9))
    assert 0 < jump < 49 / 2


# -- self time -------------------------------------------------------

def _spans(*rows):
    return [Span(layer, start, end, parent, None, 0)
            for layer, start, end, parent in rows]


def test_self_time_nested_and_back_to_back():
    spans = _spans(("bench", 0, 10, -1),
                   ("a", 1, 3, 0),
                   ("b", 3, 6, 0),          # back to back with a
                   ("c", 4, 5, 2))          # nested in b
    assert self_times(spans) == [5, 2, 2, 1]
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_clips_and_merges_overlapping_children():
    spans = _spans(("p", 0, 4, -1), ("x", -1, 2, 0), ("y", 1, 3, 0))
    assert self_times(spans)[0] == 1


def test_recursive_calls_count_once():
    spans = _spans(("bench", 0, 10, -1), ("sim", 1, 9, 0),
                   ("faults", 2, 8, 1), ("sim", 3, 4, 2),
                   ("sim", 5, 7, 2))
    assert outermost(spans) == [True, True, True, False, False]
    stats = layer_stats(spans)
    assert stats["sim"].calls == 1
    assert stats["sim"].inclusive_s == 8
    assert stats["sim"].self_s == 2 + 1 + 2
    assert sum(s.self_s for s in stats.values()) == 10


# -- error_rate accounting -------------------------------------------

def _outcome(name, time=1.0, error=None, cached=False):
    result = None if error else SimpleNamespace(
        iteration_time=time, breakdown=SimpleNamespace(
            compute=0.5, sync=0.25, vmem=0.0),
        pipeline=None, serving=None, cluster=None, faults=None,
        to_dict=lambda: {"t": time})
    return SimpleNamespace(point=SimpleNamespace(label=name),
                           ok=error is None, result=result, error=error,
                           cached=cached)


def _verdict(claim, status):
    return SimpleNamespace(claim=claim, status=SimpleNamespace(value=status),
                           detail="")


REFERENCE = {name: {"iteration_time": 1.0, "breakdown.compute": 0.5,
                    "breakdown.sync": 0.25, "breakdown.vmem": 0.0}
             for name in "abcde"}


def test_error_rate_counts_each_failed_operation_once():
    outcomes = [_outcome("a"), _outcome("b", time=1.0 + 1e-12),
                _outcome("c", time=1.0 + 1e-6), _outcome("d", error="boom"),
                _outcome("f")]
    check = workloads.check_cells(outcomes, REFERENCE, "abcdef")
    # c off by 1e-6, d raised, e missing, f has no reference values
    assert (check.attempted, check.failed) == (6, 4)
    report = SimpleNamespace(verdicts=[_verdict("ok", "PASS"),
                                       _verdict("no", "FAIL")])
    workloads.check_verdicts(check, report, "{}")
    assert (check.attempted, check.failed) == (8, 5)


def test_warm_pass_must_replay_byte_for_byte():
    replay = {"a": json.dumps({"t": 1.0}), "b": json.dumps({"t": 1.0})}
    outcomes = [_outcome("a", cached=True), _outcome("b", cached=False)]
    check = workloads.check_cells(outcomes, REFERENCE, "ab", replay)
    assert (check.attempted, check.failed) == (2, 1)
    report = SimpleNamespace(verdicts=[_verdict("a", "PASS"),
                                       _verdict("b", "PASS")])
    workloads.check_verdicts(check, report, "new", "new")
    assert (check.attempted, check.failed) == (4, 1)
    workloads.check_verdicts(check, report, "new", "old")
    assert (check.attempted, check.failed) == (6, 3)


# -- paper gap -------------------------------------------------------

def test_paper_gap_is_zero_at_the_paper_speedup():
    from repro.dnn.registry import BENCHMARK_NAMES
    times = {}
    for network in BENCHMARK_NAMES:
        for tag in ("dp", "mp"):
            times[f"DC-DLA/{network}/{tag}"] = 2.8
            times[f"MC-DLA(B)/{network}/{tag}"] = 1.0
    assert workloads.paper_gap_pct(times) == pytest.approx(0, abs=1e-12)
    # A pass missing one of the 16 cells yields no gap, not an error.
    del times["DC-DLA/AlexNet/dp"]
    record = SimpleNamespace(check=SimpleNamespace(iteration_times=times))
    assert run.paper_gap([record]) is None


def test_paper_gap_matches_the_fig13_golden():
    from repro.campaign.runner import run_campaign

    golden_path = os.path.join(perfbench.ROOT, "tests", "golden",
                               "fig13.json")
    with open(golden_path) as handle:
        golden = json.load(handle)["mcb_speedup_overall"]
    report = run_campaign(workloads.build_inputs("grid", 1))
    times = {workloads.cell_name(o.point): o.result.iteration_time
             for o in report.outcomes}
    expected = abs(golden - 2.8) / 2.8 * 100
    assert workloads.paper_gap_pct(times) == pytest.approx(expected,
                                                           rel=1e-9)
    assert round(expected, 1) == 3.1


# -- inputs and tracing ----------------------------------------------

def test_seed_permutes_cell_order_reproducibly():
    items = tuple(range(50))
    assert workloads.permuted(items, 7, 1) == workloads.permuted(items, 7, 1)
    assert workloads.permuted(items, 7, 1) != workloads.permuted(items, 7, 2)
    assert workloads.permuted(items, 7, 1) != workloads.permuted(items, 8, 1)
    assert sorted(workloads.permuted(items, 7, 1)) == list(items)


def test_tracer_keeps_cache_keys_and_puts_originals_back(tmp_path):
    from repro.campaign import runner
    from repro.campaign.cache import ResultCache
    from repro.campaign.points import grid
    from repro.core import design_points, simulator

    points = grid(("DC-DLA", "MC-DLA(B)"), ("AlexNet",), batches=(64,))
    original = simulator.simulate
    runner.run_campaign(points, cache=ResultCache(tmp_path))
    tracer = Tracer()
    tracer.install(workloads.cell_name)
    try:
        assert simulator.simulate is not original
        tracer.begin_pass()
        cache = ResultCache(tmp_path)
        report = runner.run_campaign(
            points, cache=cache, factory=design_points.design_point)
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert simulator.simulate is original
    assert runner.simulate is original
    assert (cache.hits, cache.misses) == (2, 0)
    assert report.cached_count == 2
    assert not tracer.missing
    cells = {s.cell for s in tracer.spans if s.layer == "campaign.key"}
    assert cells == {"DC-DLA/AlexNet/dp", "MC-DLA(B)/AlexNet/dp"}
    assert sum(self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0].duration)


def test_missing_wrapped_function_is_reported_by_name():
    tracer = Tracer(targets=(
        Target("core.simulate", "repro.core.simulator:no_such_function"),))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["repro.core.simulator:no_such_function"]


def test_import_self_times_group_by_top_level_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:      2000 |       2500 |   numpy.core",
        "import time:       500 |       3000 | numpy",
        "import time:      1500 |       1500 | repro.core",
        "import time:        70 |         70 | perfbench.workloads",
    ])
    totals = run.import_self_times(text)
    assert totals == pytest.approx({"numpy": 0.0025, "networkx": 0.0,
                                    "repro": 0.0015, "other": 0.0001})
    assert math.isclose(sum(totals.values()), 0.0041)
