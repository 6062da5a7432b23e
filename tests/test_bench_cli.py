"""Tests of ``python -m repro bench`` (the perf-baseline harness)."""

from __future__ import annotations

import json

import pytest

from repro import bench


@pytest.fixture
def fake_suites(monkeypatch):
    """Replace the real workloads with instant deterministic fakes."""
    calls = []

    def fake(quick: bool) -> dict[str, float]:
        calls.append(quick)
        return ({"tiny-quick": 0.040} if quick
                else {"big-cold": 0.200})

    monkeypatch.setattr(bench, "_SUITE_FNS",
                        {name: fake for name in bench.SUITES})
    monkeypatch.setattr(bench, "calibration_spin", lambda: 0.010)
    monkeypatch.setattr(bench, "_time",
                        lambda fn, *, cold: fn() if callable(fn) else fn)
    return calls


class TestCalibration:
    def test_spin_is_positive_and_repeatable(self):
        a = bench.calibration_spin()
        b = bench.calibration_spin()
        assert a > 0 and b > 0
        assert min(a, b) / max(a, b) > 0.2  # same order of magnitude

    def test_bench_path_naming(self, tmp_path):
        assert (bench.bench_path("campaign", tmp_path)
                == tmp_path / "BENCH_campaign.json")


class TestCheckSection:
    BASE = {"entries": {
        "fast": {"seconds": 0.100, "normalized": 10.0},
        "tiny": {"seconds": 0.001, "normalized": 0.1}}}

    def test_within_tolerance_passes(self):
        current = {"entries": {
            "fast": {"seconds": 0.110, "normalized": 11.0}}}
        assert bench.check_section("s", "full", current, self.BASE) == []

    def test_real_regression_fails(self):
        current = {"entries": {
            "fast": {"seconds": 0.150, "normalized": 15.0}}}
        problems = bench.check_section("s", "full", current, self.BASE)
        assert len(problems) == 1 and "fast" in problems[0]

    def test_spin_jitter_alone_does_not_fail(self):
        # Normalized inflated (slow spin) but raw seconds steady.
        current = {"entries": {
            "fast": {"seconds": 0.102, "normalized": 15.0}}}
        assert bench.check_section("s", "full", current, self.BASE) == []

    def test_noise_floor_exempts_sub_ms_entries(self):
        current = {"entries": {
            "tiny": {"seconds": 0.003, "normalized": 0.3}}}
        assert bench.check_section("s", "full", current, self.BASE) == []

    def test_new_entries_are_ignored(self):
        current = {"entries": {
            "brand-new": {"seconds": 9.0, "normalized": 900.0}}}
        assert bench.check_section("s", "full", current, self.BASE) == []


class TestMain:
    def test_unknown_suite_is_rejected(self, capsys):
        assert bench.main(["--suites", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_update_writes_all_baselines(self, fake_suites, tmp_path):
        rc = bench.main(["--update", "--root", str(tmp_path)])
        assert rc == 0
        for suite in bench.SUITES:
            doc = json.loads(bench.bench_path(suite, tmp_path).read_text())
            assert set(doc) >= {"suite", "calibration_seconds",
                                "full", "quick"}
            assert "big-cold" in doc["full"]["entries"]
            assert "tiny-quick" in doc["quick"]["entries"]

    def test_check_passes_against_own_baseline(self, fake_suites,
                                               tmp_path):
        assert bench.main(["--update", "--root", str(tmp_path)]) == 0
        assert bench.main(["--quick", "--root", str(tmp_path)]) == 0
        assert bench.main(["--root", str(tmp_path)]) == 0

    def test_missing_baseline_fails(self, fake_suites, tmp_path):
        assert bench.main(["--quick", "--root", str(tmp_path)]) == 1

    def test_doctored_baseline_fails(self, fake_suites, tmp_path,
                                     capsys):
        bench.main(["--update", "--root", str(tmp_path)])
        for suite in bench.SUITES:
            path = bench.bench_path(suite, tmp_path)
            doc = json.loads(path.read_text())
            for section in ("full", "quick"):
                for cell in doc[section]["entries"].values():
                    cell["seconds"] /= 3
                    cell["normalized"] /= 3
            path.write_text(json.dumps(doc))
        assert bench.main(["--quick", "--root", str(tmp_path)]) == 1
        assert "FAILED" in capsys.readouterr().err
