"""Prefetch cells in the campaign engine: CLI rows, cache keys,
cross-process byte identity, and the golden policy-study snapshot."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.points import CampaignPoint
from repro.campaign.runner import run_campaign
from repro.campaign.cli import main as campaign_cli
from repro.core.design_points import design_point
from repro.scenarios.dsl import DesignSpec, Scenario, WorkloadSpec
from repro.scenarios.lowering import lower_scenario, scenario_design_point
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Module state a factory can bake into its configs without the point
#: axes noticing -- the historical cache-drift scenario.
_BAKED = {"policy": "on-demand"}


def baked_factory(name, **kwargs):
    """A factory whose behavior depends on module state, not axes."""
    return dataclasses.replace(design_point(name, **kwargs),
                               prefetch_policy=_BAKED["policy"])


def _prefetching(design, policy):
    """The campaign CLI's prefetch cell, lowered."""
    return lower_scenario(Scenario(
        name=f"{design}|{policy}", system=DesignSpec(design),
        workload=WorkloadSpec("AlexNet"), prefetch_policy=policy))


class TestPrefetchGrid:
    def test_shape_and_labels(self, capsys):
        code = campaign_cli([
            "--designs", "DC-DLA,MC-DLA(B)", "--networks", "AlexNet",
            "--strategies", "data",
            "--prefetch-policies", "on-demand,clairvoyant",
            "--no-cache", "--quiet", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["design"] for r in rows] == [
            "DC-DLA|on-demand", "MC-DLA(B)|on-demand",
            "DC-DLA|clairvoyant", "MC-DLA(B)|clairvoyant"]
        for row in rows:
            assert row["design"].endswith(f"|{row['prefetch_policy']}")

    def test_policy_lands_in_describe(self):
        description = _prefetching("DC-DLA", "stride").describe()
        assert ["prefetch_policy", "stride"] \
            in description["replacements"]

    def test_policy_variants_key_distinct_cache_entries(self,
                                                        tmp_path):
        cache = ResultCache(tmp_path, code_version="pinned")
        keys = {
            cache.key(_prefetching("MC-DLA(B)", policy).describe(
                scenario_design_point), "factory")
            for policy in PREFETCH_POLICY_ORDER}
        assert len(keys) == len(PREFETCH_POLICY_ORDER)


class TestConfigFingerprintKeys:
    """Regression: bench cache keys must cover the built config.

    A factory that bakes state the point axes do not carry (here the
    module-level ``_BAKED_POLICY``) used to key identically across
    that state -- a stale cached result for one prefetch policy would
    silently replay as another's.  Keying on ``describe(factory)``
    (the full config fingerprint) makes the entries distinct.
    """

    def test_key_tracks_factory_behavior(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="pinned")
        point = CampaignPoint("MC-DLA(B)", "AlexNet", batch=64)
        old = _BAKED["policy"]
        try:
            _BAKED["policy"] = "on-demand"
            key_a = cache.key(point.describe(baked_factory), "f")
            _BAKED["policy"] = "clairvoyant"
            key_b = cache.key(point.describe(baked_factory), "f")
        finally:
            _BAKED["policy"] = old
        assert key_a != key_b

    def test_no_stale_replay_across_policies(self, tmp_path):
        point = CampaignPoint("MC-DLA(B)", "VGG-E", batch=64)
        cache = ResultCache(tmp_path / "cache")
        old = _BAKED["policy"]
        try:
            _BAKED["policy"] = "on-demand"
            first = run_campaign([point], cache=cache,
                                 factory=baked_factory)
            first.raise_failures()
            assert first.cached_count == 0
            _BAKED["policy"] = "clairvoyant"
            second = run_campaign([point], cache=cache,
                                  factory=baked_factory)
            second.raise_failures()
            # The flipped factory must MISS the cache, not replay the
            # on-demand numbers.
            assert second.cached_count == 0
            a = first.outcomes[0].result
            b = second.outcomes[0].result
            assert a.prefetch.policy == "on-demand"
            assert b.prefetch.policy == "clairvoyant"
            assert b.prefetch.stall_seconds \
                < a.prefetch.stall_seconds
            # And replaying with the same state is still a hit.
            third = run_campaign([point], cache=cache,
                                 factory=baked_factory)
            assert third.cached_count == 1
            assert third.outcomes[0].result == b
        finally:
            _BAKED["policy"] = old

    def test_unbuildable_point_is_isolated_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good = CampaignPoint("MC-DLA(B)", "AlexNet", batch=64)
        bad = CampaignPoint("MC-DLA(B)", "AlexNet", batch=64,
                            replacements=(("prefetch_policy",
                                           "no-such-policy"),),
                            label="bad")
        report = run_campaign([good, bad], cache=cache)
        assert report.outcomes[0].ok
        assert not report.outcomes[1].ok
        assert "no-such-policy" in report.outcomes[1].error


class TestPrefetchCampaignCli:
    def test_prefetch_axis_json(self, tmp_path, capsys):
        out = tmp_path / "prefetch.json"
        code = campaign_cli([
            "--designs", "MC-DLA(B)", "--networks", "AlexNet",
            "--strategies", "data",
            "--prefetch-policies", "on-demand,clairvoyant",
            "--no-cache", "--quiet", "--format", "json",
            "-o", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        by_policy = {r["prefetch_policy"]: r for r in rows}
        assert set(by_policy) == {"on-demand", "clairvoyant"}
        assert by_policy["clairvoyant"]["stall_seconds"] \
            <= by_policy["on-demand"]["stall_seconds"]
        for row in rows:
            assert 0.0 <= row["prefetch_hit_rate"] <= 1.0
            assert row["prefetch"]["policy"] == row["prefetch_policy"]

    def test_unknown_policy_rejected(self, capsys):
        code = campaign_cli(["--prefetch-policies", "belady",
                             "--no-cache", "--quiet"])
        assert code == 2
        assert "unknown prefetch policy" in capsys.readouterr().err

    def test_csv_has_prefetch_columns(self, tmp_path):
        out = tmp_path / "prefetch.csv"
        code = campaign_cli([
            "--designs", "MC-DLA(B)", "--networks", "AlexNet",
            "--strategies", "data",
            "--prefetch-policies", "stride",
            "--no-cache", "--quiet", "--format", "csv",
            "-o", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        for column in ("prefetch_policy", "stall_seconds",
                       "prefetch_hit_rate", "wasted_prefetch_bytes",
                       "prefetch_evictions"):
            assert column in header


class TestCrossProcessByteIdentity:
    """The new axis caches and replays byte-identically across two
    fresh interpreter processes (the satellite's exact scenario)."""

    def _run(self, cache_dir: Path, out: Path) -> str:
        result = subprocess.run(
            [sys.executable, "-B", "-m", "repro", "campaign",
             "--designs", "DC-DLA,MC-DLA(B)",
             "--networks", "AlexNet", "--strategies", "data",
             "--prefetch-policies", "on-demand,clairvoyant,stride",
             "--cache-dir", str(cache_dir), "--quiet",
             "--format", "json", "-o", str(out)],
            capture_output=True, text=True, timeout=600,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        return result.stderr

    def test_replay_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first_out = tmp_path / "first.json"
        second_out = tmp_path / "second.json"
        first_log = self._run(cache_dir, first_out)
        assert "6 cells: 0 from cache, 6 simulated" in first_log
        second_log = self._run(cache_dir, second_out)
        assert "6 cells: 6 from cache, 0 simulated" in second_log
        cold = json.loads(first_out.read_text())
        warm = json.loads(second_out.read_text())
        for rows in (cold, warm):
            for row in rows:
                row.pop("cached")  # hit/miss differs by design
        assert json.dumps(cold, sort_keys=True) \
            == json.dumps(warm, sort_keys=True)


@pytest.mark.golden
def test_prefetch_comparison_golden(golden):
    """Key scalars of the quick policy study, pinned."""
    from repro.experiments.prefetch_comparison import (
        run_prefetch_comparison)
    study = run_prefetch_comparison(modes=("training",),
                                    training_network="AlexNet")
    golden.check("prefetch", study.scalars())
