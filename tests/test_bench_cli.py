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

    def test_empty_suite_list_is_rejected(self, capsys):
        assert bench.main(["--suites", ","]) == 2
        assert "--suites needs at least one value" \
            in capsys.readouterr().err

    def test_update_writes_all_baselines(self, fake_suites, tmp_path):
        assert bench.main(["--update", "--root", str(tmp_path)]) == 0
        assert bench.main(["--update", "--quick", "--root",
                           str(tmp_path)]) == 0
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
        bench.main(["--update", "--quick", "--root", str(tmp_path)])
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


class TestUpdate:
    """``--update`` re-records exactly the section its command checks."""

    COMMITTED = {"suite": "core", "calibration_seconds": 0.5,
                 "tolerance": 0.2,
                 "full": {"entries": {
                     "big-cold": {"seconds": 0.7, "normalized": 1.4}}},
                 "quick": {"entries": {
                     "tiny-quick": {"seconds": 0.3, "normalized": 0.6}}}}

    @pytest.mark.parametrize("flags, section, other",
                             ((["--quick"], "quick", "full"),
                              ([], "full", "quick")),
                             ids=("quick", "full"))
    def test_other_section_keeps_its_entries(self, fake_suites, tmp_path,
                                             flags, section, other):
        for suite in bench.SUITES:
            bench.bench_path(suite, tmp_path).write_text(
                json.dumps(dict(self.COMMITTED, suite=suite), indent=2,
                           sort_keys=True) + "\n")
        assert bench.main(["--update", *flags, "--root",
                           str(tmp_path)]) == 0
        for suite in bench.SUITES:
            doc = json.loads(bench.bench_path(suite, tmp_path).read_text())
            assert doc[other] == self.COMMITTED[other]
            assert doc[section] != self.COMMITTED[section]
            assert doc["suite"] == suite

    @pytest.mark.parametrize("flags", (["--quick"], []),
                             ids=("quick", "full"))
    def test_update_measures_what_the_check_measures(self, fake_suites,
                                                     tmp_path, flags):
        root = ["--root", str(tmp_path)]
        assert bench.main(["--update", *flags, *root]) == 0
        fake_suites.clear()
        assert bench.main([*flags, *root]) == 0
        checked = list(fake_suites)
        fake_suites.clear()
        assert bench.main(["--update", *flags, *root]) == 0
        assert fake_suites == checked == [bool(flags)] * len(bench.SUITES)


class TestClaimsEntries:
    def test_cold_rounds_start_empty_and_warm_rounds_replay(
            self, monkeypatch):
        from repro.campaign import cache as cache_module

        caches = []

        class Recording(cache_module.ResultCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                caches.append(self)

        monkeypatch.setattr(cache_module, "ResultCache", Recording)
        monkeypatch.setattr(bench, "_time",
                            lambda fn, *, cold: fn() or float(cold))
        entries = bench._claims_entries("claims-quick", quick=True)
        assert entries == {"claims-quick-cold": 1.0,
                           "claims-quick-warm": 0.0}
        fill, cold, warm = caches
        # The fill and every cold round simulate all 32 cells into an
        # empty directory of their own; the warm round replays the fill.
        assert (fill.hits, cold.hits, warm.misses) == (0, 0, 0)
        assert fill.misses == cold.misses == warm.hits == 32
        assert cold.root != fill.root == warm.root
