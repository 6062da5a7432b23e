"""Tests for the experiment harness modules (smoke + shape checks).

The paper's key scalars are pinned by the golden snapshots
(tests/test_golden_figures.py); these tests verify the harness logic
itself: result wiring, normalization, formatting, and caching.
"""

import pytest

from repro.collectives.ring_algorithm import Primitive
from repro.core.design_points import DESIGN_ORDER
from repro.dnn.registry import BENCHMARK_NAMES
from repro.experiments.fig9_collectives import format_fig9, run_fig9
from repro.experiments.fig10_allocation import format_fig10, run_fig10
from repro.experiments.fig11_breakdown import format_fig11, run_fig11
from repro.experiments.fig12_cpu_bandwidth import (format_fig12,
                                                   run_fig12)
from repro.experiments.fig13_performance import format_fig13, run_fig13
from repro.experiments.matrix import evaluation_matrix
from repro.experiments.report import format_series, format_table, percent
from repro.experiments.tab4_power import format_tab4, run_tab4
from repro.training.parallel import ParallelStrategy


@pytest.fixture(scope="module")
def matrix():
    return evaluation_matrix(512)


class TestReportHelpers:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1.23456], ["yy", 2.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.235" in out

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_series_and_percent(self):
        assert format_series("s", [1, 2], [0.5, 1.5]) \
            == "s: 1=0.500, 2=1.500"
        assert percent(0.925) == "92.5%"


class TestMatrix:
    def test_cached_per_batch(self, matrix):
        assert evaluation_matrix(512) is matrix

    def test_full_grid_present(self, matrix):
        assert len(matrix.results) == 6 * 8 * 2
        result = matrix.result("DC-DLA", "VGG-E", ParallelStrategy.DATA)
        assert result.system == "DC-DLA"

    def test_speedup_and_performance_helpers(self, matrix):
        speed = matrix.speedup("MC-DLA(B)", "VGG-E",
                               ParallelStrategy.DATA)
        perf = matrix.performance("MC-DLA(B)", "VGG-E",
                                  ParallelStrategy.DATA)
        assert speed > 1.0
        assert 0.0 < perf <= 1.0


class TestFigureHarnesses:
    def test_fig9_result_access(self):
        result = run_fig9()
        assert result.at(Primitive.ALL_REDUCE, 2) == pytest.approx(1.0)
        assert "all-reduce" in format_fig9(result)

    def test_fig10_formatting(self):
        result = run_fig10(sizes_mb=(64,))
        assert len(result.points) == 1
        assert "BW_AWARE" in format_fig10(result)

    def test_fig11_bars_normalized(self, matrix):
        result = run_fig11(ParallelStrategy.DATA, matrix)
        stacks = [result.bar(n, d).total for n in BENCHMARK_NAMES
                  for d in DESIGN_ORDER]
        assert max(stacks) == pytest.approx(1.0)
        assert "Figure 11" in format_fig11(result)

    def test_fig12_zero_for_memory_centric(self, matrix):
        result = run_fig12(matrix)
        assert result.worst_case_fraction("MC-DLA(B)") == 0.0
        assert "Figure 12" in format_fig12(result)
        with pytest.raises(KeyError):
            result.bar("DC-DLA", "nope")

    def test_fig13_oracle_normalization(self, matrix):
        result = run_fig13(matrix=matrix)
        for network in BENCHMARK_NAMES:
            assert result.perf(ParallelStrategy.DATA, network,
                               "DC-DLA(O)") == pytest.approx(1.0)
        assert "paper 2.8x" in format_fig13(result)

    def test_tab4_uses_measured_speedup(self, matrix):
        fig13 = run_fig13(matrix=matrix)
        result = run_tab4(fig13)
        expected = fig13.mean_speedup("MC-DLA(B)")
        assert result.measured_speedup == pytest.approx(expected)
        assert result.perf_per_watt_low_power \
            == pytest.approx(expected / 1.0725, rel=1e-6)
        assert "Table IV" in format_tab4(result)
