"""Serving cells in the campaign engine: CLI rows, dispatch, cache,
hash seeds."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.points import CampaignPoint
from repro.campaign.cli import main as campaign_cli
from repro.campaign.points import canonicalize
from repro.scenarios.dsl import (DesignSpec, Scenario, TrafficSpec,
                                 WorkloadSpec)
from repro.scenarios.lowering import lower_scenario
from repro.scenarios.runner import run_scenarios

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_serving_scenarios():
    return {
        (design, rate): Scenario(
            name=f"{design}@{rate:g}", system=DesignSpec(design),
            workload=WorkloadSpec("GPT2"),
            traffic=TrafficSpec(rate=rate, n_requests=64))
        for rate in (200.0, 800.0) for design in ("DC-DLA", "MC-DLA(B)")}


def cli_rows(capsys, *argv):
    """The JSON rows of one uncached serving-only campaign."""
    assert campaign_cli([*argv, "--strategies", "", "--requests", "64",
                         "--no-cache", "--quiet", "--format",
                         "json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestServingGrid:
    def test_shape_and_labels_unique(self, capsys):
        rows = cli_rows(capsys, "--designs", "DC-DLA,MC-DLA(B)",
                        "--networks", "GPT2", "--arrival-rates", "200,800")
        assert [r["design"] for r in rows] == [
            "DC-DLA|poisson@200rps|slo50ms|b8w2ms",
            "MC-DLA(B)|poisson@200rps|slo50ms|b8w2ms",
            "DC-DLA|poisson@800rps|slo50ms|b8w2ms",
            "MC-DLA(B)|poisson@800rps|slo50ms|b8w2ms"]
        assert all(r["mode"] == "serving" for r in rows)

    def test_serving_knobs_in_describe(self):
        scenario = small_serving_scenarios()[("DC-DLA", 200.0)]
        point = lower_scenario(scenario)
        description = point.describe()
        served = dict(point.serving)
        assert description["serving"]
        assert served["rate"] == 200.0
        assert served["slo"] == 0.05

    def test_non_serving_point_not_serving(self):
        assert not CampaignPoint("DC-DLA", "AlexNet").is_serving

    def test_batch_policies_axis(self, capsys):
        rows = cli_rows(capsys, "--designs", "DC-DLA", "--networks",
                        "GPT2", "--arrival-rates", "100",
                        "--batch-policies", "4x1,16x5")
        assert [r["design"] for r in rows] == [
            "DC-DLA|poisson@100rps|slo50ms|b4w1ms",
            "DC-DLA|poisson@100rps|slo50ms|b16w5ms"]
        assert [r["serving"]["max_batch"] for r in rows] == [4, 16]


class TestServingCampaign:
    def test_serial_pool_and_replay_byte_identical(self, tmp_path):
        scenarios = small_serving_scenarios()
        cache = ResultCache(tmp_path / "cache")
        serial = run_scenarios(scenarios)
        pooled = run_scenarios(scenarios, jobs=2, cache=cache)
        replayed = run_scenarios(scenarios, cache=cache)
        assert all(o.cached for o in replayed.values())
        for key, outcome in serial.items():
            assert outcome.result == pooled[key].result \
                == replayed[key].result
            assert outcome.result.serving is not None

    def test_mixed_training_and_serving_campaign(self):
        scenarios = {"train": Scenario(
            name="train", system=DesignSpec("DC-DLA"),
            workload=WorkloadSpec("AlexNet"))}
        scenarios.update(small_serving_scenarios())
        outcomes = run_scenarios(scenarios).values()
        modes = [o.result.mode.value for o in outcomes]
        assert modes.count("training") == 1
        assert modes.count("serving") == 4

    def test_cli_serving_axis_json(self, tmp_path, capsys):
        out = tmp_path / "serving.json"
        code = campaign_cli([
            "--designs", "MC-DLA(B)", "--networks", "GPT2",
            "--strategies", "data", "--arrival-rates", "200",
            "--slo-ms", "50", "--batch-policies", "8x2",
            "--requests", "64", "--no-cache", "--quiet",
            "--format", "json", "-o", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        serving_rows = [r for r in rows if r["mode"] == "serving"]
        assert len(serving_rows) == 1
        row = serving_rows[0]
        assert row["serving"]["n_requests"] == 64
        assert row["latency_p99"] >= row["latency_p50"] > 0
        assert row["goodput"] > 0

    def test_cli_rejects_bad_policy(self, capsys):
        code = campaign_cli([
            "--designs", "DC-DLA", "--networks", "GPT2",
            "--arrival-rates", "100", "--batch-policies", "eight"])
        assert code == 2
        assert "bad axis value" in capsys.readouterr().err

    def test_cli_rejects_continuous_on_non_transformers(self, capsys):
        code = campaign_cli([
            "--designs", "DC-DLA", "--networks", "AlexNet,GPT2",
            "--arrival-rates", "100", "--batcher", "continuous"])
        assert code == 2
        err = capsys.readouterr().err
        assert "continuous" in err and "AlexNet" in err

    def test_cli_table_shows_serving_metrics(self, capsys):
        code = campaign_cli([
            "--designs", "MC-DLA(B)", "--networks", "GPT2",
            "--strategies", "data", "--arrival-rates", "200",
            "--requests", "64", "--no-cache", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 (ms)" in out and "SLO att." in out
        assert "req/s" in out

    def test_continuous_wait_axis_collapses(self, capsys):
        rows = cli_rows(capsys, "--designs", "MC-DLA(B)", "--networks",
                        "GPT2", "--arrival-rates", "100",
                        "--batch-policies", "8x1,8x10",
                        "--batcher", "continuous")
        assert [r["design"] for r in rows] == [
            "MC-DLA(B)|poisson@100rps|slo50ms|b8w0ms"]
        assert rows[0]["serving"]["max_wait"] == 0.0

    def test_continuous_stats_report_zero_wait(self):
        from repro.core.design_points import design_point
        from repro.serving.server import simulate_serving
        result = simulate_serving(
            design_point("MC-DLA(B)"), "GPT2", rate=20.0,
            n_requests=16, batcher="continuous", decode_steps=4,
            max_wait=0.010)
        assert result.serving.max_wait == 0.0


class TestHashSeedDeterminism:
    """The cache key must not depend on ``PYTHONHASHSEED``.

    ``canonicalize`` used to fall back to ``repr`` for sets, whose
    iteration order follows the process hash seed -- two runs of the
    same campaign could then key the same cell differently and never
    share cache entries.
    """

    def test_canonicalize_sorts_sets(self):
        image_a = canonicalize({"b", "a", "c", "long-string-1"})
        image_b = canonicalize({"long-string-1", "c", "a", "b"})
        assert image_a == image_b
        assert image_a == {"__set__": ['"a"', '"b"', '"c"',
                                       '"long-string-1"']} \
            or image_a["__set__"] == sorted(image_a["__set__"])

    def test_canonicalize_frozenset_and_nested(self):
        nested = {"k": frozenset({3, 1, 2})}
        assert canonicalize(nested) == canonicalize(
            {"k": frozenset({2, 3, 1})})

    def test_cache_key_stable_across_hash_seeds(self, tmp_path):
        """Regression: run the key derivation under two different
        ``PYTHONHASHSEED`` values and demand identical digests."""
        script = (
            "import json\n"
            "from repro.campaign.cache import ResultCache, code_fingerprint\n"
            "from repro.campaign.points import CampaignPoint\n"
            "from repro.core.design_points import design_point\n"
            "point = CampaignPoint('MC-DLA(B)', 'GPT2',\n"
            "    overrides=(('tags', frozenset({'a', 'b', 'c'})),),\n"
            "    serving=(('rate', 200.0), ('seed', 1)))\n"
            "built = CampaignPoint('MC-DLA(B)', 'GPT2',\n"
            "    replacements=(('prefetch_policy', 'stride'),),\n"
            "    serving=(('rate', 200.0), ('seed', 1)))\n"
            "cache = ResultCache('unused', code_version='pinned')\n"
            "print(json.dumps([\n"
            "    cache.key(point.describe(), 'factory'),\n"
            "    cache.key(built.describe(design_point), 'factory'),\n"
            "    code_fingerprint()]))\n"
        )
        digests = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            digests.append(json.loads(proc.stdout))
        assert digests[0] == digests[1]


class TestServingComparisonExperiment:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments.serving_comparison import (
            run_serving_comparison)
        return run_serving_comparison(rates=(200.0, 800.0, 1600.0),
                                      n_requests=128)

    def test_all_cells_present(self, study):
        from repro.core.design_points import DESIGN_ORDER
        assert set(study.stats) == {(d, r) for d in DESIGN_ORDER
                                    for r in study.rates}

    def test_memory_centric_beats_dc_baseline_at_knee(self, study):
        """The acceptance criterion: every MC design sustains strictly
        higher goodput at its SLO knee than the DC baseline."""
        from repro.experiments.serving_comparison import MC_DESIGNS
        dc = study.knee_goodput("DC-DLA")
        for design in MC_DESIGNS:
            assert study.knee_goodput(design) > dc

    def test_oracle_upper_bounds_everyone(self, study):
        for rate in study.rates:
            oracle = study.at("DC-DLA(O)", rate)
            for design in ("DC-DLA", "MC-DLA(B)"):
                assert study.at(design, rate).latency_p50 \
                    >= oracle.latency_p50 - 1e-12

    def test_format_mentions_knee(self, study):
        from repro.experiments.serving_comparison import (
            format_serving_comparison)
        text = format_serving_comparison(study)
        assert "SLO knee per design" in text
        assert "goodput" in text
