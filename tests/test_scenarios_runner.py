"""Integration tests: suite execution, renderings, CLI, and cache.

Small two-cell suites keep the unit-level assertions fast; the golden
snapshot and the cross-process cache test run the shipped quick suite
(the same slice CI smokes via ``python -m repro claims --quick``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignError
from repro.campaign import cli as campaign_cli
from repro.campaign.points import BuiltConfigs
from repro.experiments import ablations, scalability, sensitivity
from repro.experiments.faults_comparison import run_fault_comparison
from repro.experiments.prefetch_comparison import run_prefetch_comparison
from repro.scenarios.claims import at_least, ratio_at_least
from repro.scenarios.cli import main as claims_cli
from repro.scenarios.dsl import DesignSpec, Scenario, WorkloadSpec
from repro.scenarios.lowering import lower_scenario, scenario_design_point
from repro.scenarios.paper import paper_suite
from repro.scenarios.runner import ClaimSuite, run_study, run_suite
from repro.scenarios.verdict import (Status, render_csv, render_json,
                                     render_text)
from test_result_digest import result_digest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _scenario(name, design="mc-hbm", **kwargs):
    return Scenario(name=name, system=DesignSpec(design, **kwargs),
                    workload=WorkloadSpec(network="AlexNet"))


def _tiny_suite():
    return ClaimSuite(
        name="tiny",
        scenarios=(_scenario("dc", "dc"), _scenario("mc")),
        claims=(
            ratio_at_least("mc-wins", "iteration_time",
                           numerators=("dc",), denominators=("mc",),
                           threshold=1.0, strict=True),
            at_least("impossible", "iteration_time",
                     scenarios=("dc",), bound=1e9),
        ))


def _failing_factory(quick=False):
    """A suite whose single claim can never hold (CI exit-code probe)."""
    return ClaimSuite(
        name="doomed", scenarios=(_scenario("mc"),),
        claims=(at_least("impossible", "iteration_time",
                         scenarios=("mc",), bound=1e9),))


class TestRunSuite:
    @pytest.fixture(scope="class")
    def report(self):
        return run_suite(_tiny_suite())

    def test_verdicts_in_claim_order(self, report):
        assert [v.claim for v in report.verdicts] \
            == ["mc-wins", "impossible"]
        assert report.verdict("mc-wins").status is Status.PASS
        assert report.verdict("impossible").status is Status.FAIL
        assert not report.ok
        assert report.counts == {"PASS": 1, "FAIL": 1, "ERROR": 0}

    def test_fingerprints_cover_every_scenario(self, report):
        names = [name for name, _ in report.fingerprints]
        assert names == ["dc", "mc"]
        assert all(len(fp) == 64 for _, fp in report.fingerprints)
        assert report.n_cells == 2

    def test_renderings_agree_on_verdicts(self, report):
        text = render_text(report)
        assert "mc-wins" in text and "FAIL" in text
        assert report.summary() in text
        rows = render_csv(report).strip().splitlines()
        assert rows[0].startswith("claim,status,")
        assert len(rows) == 3
        payload = json.loads(render_json(report))
        assert payload["counts"] == report.counts
        assert set(payload["scenarios"]) == {"dc", "mc"}

    def test_failed_cell_errors_its_claims_only(self):
        # The bogus factory kwarg kills one cell; the claim that binds
        # it reports ERROR while the healthy cell's claim still PASSes.
        suite = ClaimSuite(
            name="half-broken",
            scenarios=(_scenario("ok"),
                       _scenario("broken",
                                 overrides=(("bogus_kwarg", 1),))),
            claims=(
                at_least("healthy", "iteration_time",
                         scenarios=("ok",), bound=0.0),
                at_least("doomed", "iteration_time",
                         scenarios=("broken",), bound=0.0),
            ))
        report = run_suite(suite)
        assert report.verdict("healthy").status is Status.PASS
        doomed = report.verdict("doomed")
        assert doomed.status is Status.ERROR
        assert "'broken' failed" in doomed.detail


class TestRunStudy:
    def test_results_keyed_as_declared(self):
        results = run_study({("dc", 1): _scenario("dc", "dc"),
                             ("mc", 2): _scenario("mc")})
        assert list(results) == [("dc", 1), ("mc", 2)]
        assert results[("mc", 2)].system == "MC-DLA(B)"

    def test_failed_cell_raises_naming_it(self):
        doomed = {"pim": _scenario("dc-pim", "dc", pim_fraction=0.25)}
        with pytest.raises(CampaignError, match="dc-pim"):
            run_study(doomed)


class TestSuiteValidation:
    def test_duplicate_scenarios(self):
        with pytest.raises(ValueError, match="duplicate scenario"):
            ClaimSuite(name="s",
                       scenarios=(_scenario("a"), _scenario("a")),
                       claims=())

    def test_duplicate_claims(self):
        claim = at_least("c", "iteration_time", scenarios=("a",),
                         bound=0.0)
        with pytest.raises(ValueError, match="duplicate claim"):
            ClaimSuite(name="s", scenarios=(_scenario("a"),),
                       claims=(claim, claim))

    def test_undeclared_scenario(self):
        claim = at_least("c", "iteration_time",
                         scenarios=("a", "ghost"), bound=0.0)
        with pytest.raises(ValueError, match="ghost"):
            ClaimSuite(name="s", scenarios=(_scenario("a"),),
                       claims=(claim,))


class TestGolden:
    def test_quick_suite_scalars(self, golden):
        report = run_suite(paper_suite(quick=True))
        golden.check("claims", report.scalars())


class TestCli:
    def test_failing_claim_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "verdicts.json"
        rc = claims_cli(["--no-cache", "--format", "json",
                         "-o", str(out)],
                        suite_factory=_failing_factory)
        assert rc == 1
        payload = json.loads(out.read_text())
        assert payload["counts"]["FAIL"] == 1
        assert "1 FAIL" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, capsys):
        assert claims_cli(["--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_list_prints_fingerprints(self, capsys):
        rc = claims_cli(["--quick", "--list"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        suite = paper_suite(quick=True)
        assert len(lines) == len(suite.scenarios)
        fingerprint, name = lines[0].split(maxsplit=1)
        assert suite.scenario(name).fingerprint() == fingerprint

    def test_cache_round_trip_in_process(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["--format", "csv", "--cache-dir", str(cache_dir)]
        rc = claims_cli(argv, suite_factory=_failing_factory)
        cold = capsys.readouterr()
        rc2 = claims_cli(argv, suite_factory=_failing_factory)
        warm = capsys.readouterr()
        assert rc == rc2 == 1
        assert "0 cached" in cold.err
        assert "1 cached" in warm.err
        assert cold.out == warm.out


@pytest.mark.integration
class TestCrossProcessCache:
    """Scenario-lowered cells replay byte-identically from the shared
    campaign cache across fresh interpreter processes (acceptance
    criterion: two cold runs, one cache, byte-identical JSON)."""

    def _run(self, cache_dir: Path, out: Path) -> str:
        result = subprocess.run(
            [sys.executable, "-B", "-m", "repro", "claims", "--quick",
             "--format", "json", "--cache-dir", str(cache_dir),
             "-o", str(out)],
            capture_output=True, text=True, timeout=600,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        return result.stderr

    def test_replay_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first_out = tmp_path / "first.json"
        second_out = tmp_path / "second.json"
        first_log = self._run(cache_dir, first_out)
        assert "0 cached" in first_log
        second_log = self._run(cache_dir, second_out)
        assert "0 cached" not in second_log
        assert first_out.read_bytes() == second_out.read_bytes()
        payload = json.loads(first_out.read_text())
        assert payload["counts"]["FAIL"] == 0
        assert payload["counts"]["ERROR"] == 0


#: One campaign over every CLI axis: training under a prefetch policy,
#: pipeline, serving and cluster cells, each under two fault models.
MULTI_AXIS_ARGV = [
    "--designs", "DC-DLA,MC-DLA(B)", "--networks", "GPT2",
    "--batches", "64", "--strategies", "data,pipeline",
    "--pipeline-schedules", "1f1b", "--arrival-rates", "400",
    "--requests", "32", "--policies", "fifo", "--cluster-jobs", "6",
    "--pool-gb", "1024", "--prefetch-policies", "stride",
    "--fault-models", "none,storm"]


class TestCampaignCliPin:
    """The campaign CLI's rows, in order, with a digest of every result
    field (``tests/golden/campaign_cli.json``)."""

    def test_multi_axis_campaign(self, golden, monkeypatch):
        reports = []
        render = campaign_cli._render

        def capture(report, fmt):
            reports.append(report)
            return render(report, fmt)

        monkeypatch.setattr(campaign_cli, "_render", capture)
        assert campaign_cli.main(
            [*MULTI_AXIS_ARGV, "--no-cache", "--quiet"]) == 0
        (report,) = reports
        golden.check("campaign_cli", {"cells": [
            [o.point.name, result_digest(o.result)]
            for o in report.outcomes]})


@pytest.fixture(scope="module")
def claims_cache(tmp_path_factory):
    """A cache the quick claims suite filled."""
    root = tmp_path_factory.mktemp("claims-cache")
    run_suite(paper_suite(quick=True), cache=ResultCache(root))
    return root


class TestCampaignSharesClaimsCells:
    """A campaign CLI cell keys the same cache entry as an identical
    claims cell, so it replays from a cache the claims suite filled."""

    @pytest.mark.parametrize("argv, hits", [
        (["--networks", "AlexNet", "--strategies", "data"], 6),
        (["--designs", "DC-DLA,MC-DLA(B)", "--networks", "GPT2",
          "--strategies", "pipeline", "--batches", "64",
          "--pipeline-schedules", "1f1b,gpipe"], 4),
    ], ids=["alexnet-data", "gpt2-pipeline"])
    def test_cli_cells_hit(self, claims_cache, tmp_path, capsys, argv,
                           hits):
        root = tmp_path / "cache"
        shutil.copytree(claims_cache, root)
        assert campaign_cli.main(
            [*argv, "--cache-dir", str(root), "--quiet"]) == 0
        err = capsys.readouterr().err
        assert f"{hits} cells: {hits} from cache, 0 simulated" in err
        assert f"cache: {hits} hits, 0 misses" in err


class TestStudiesShareClaimsCells:
    """A study cell declared like a claims cell keys the same cache
    entry, so it replays from a cache the claims suite filled."""

    @pytest.mark.parametrize("run, hits, misses", [
        (run_prefetch_comparison, 4, 26),
        (run_fault_comparison, 7, 29),
    ], ids=["prefetch", "faults"])
    def test_training_cells_hit(self, claims_cache, tmp_path, run, hits,
                                misses):
        root = tmp_path / "cache"
        shutil.copytree(claims_cache, root)
        cache = ResultCache(root)
        run(modes=("training",), cache=cache)
        assert (cache.hits, cache.misses) == (hits, misses)


class TestPaperStudiesDeclareScenarios:
    """Sensitivity, scalability and the ablations declare Scenarios, so
    a study cell declared like a claims cell keys the same cache
    entry as that claims cell."""

    @pytest.fixture(scope="class")
    def keys(self):
        configs = BuiltConfigs(scenario_design_point)
        return lambda scenario: json.dumps(
            lower_scenario(scenario).describe(configs), sort_keys=True)

    @staticmethod
    def declared(monkeypatch, module, run):
        """The ``{key: Scenario}`` a study hands ``run_study``, caught
        before any cell runs."""
        cells = {}

        class Declared(Exception):
            pass

        def capture(scenarios, **kwargs):
            cells.update(scenarios)
            raise Declared

        monkeypatch.setattr(module, "run_study", capture)
        with pytest.raises(Declared):
            run()
        return cells

    def test_study_cell_is_the_claims_cell(self, monkeypatch, keys):
        cells = self.declared(monkeypatch, sensitivity,
                              sensitivity.run_sensitivity)
        claims = paper_suite()
        assert keys(cells[("dc", "VGG-E", "data")]) \
            == keys(claims.scenario("DC-DLA/VGG-E/dp"))
        assert keys(cells[("dc/gen4", "VGG-E", "data")]) \
            != keys(claims.scenario("DC-DLA/VGG-E/dp"))

    def test_shared_cells(self, monkeypatch, keys):
        claims = {keys(s) for s in paper_suite().scenarios}
        studies = [self.declared(monkeypatch, module, run) for module, run
                   in ((sensitivity, sensitivity.run_sensitivity),
                       (scalability, scalability.run_scalability),
                       (ablations, ablations.run_ablations))]
        assert [len(cells) for cells in studies] == [120, 36, 18]
        shared = [sum(keys(s) in claims for s in cells.values())
                  for cells in studies]
        assert shared == [32, 0, 6]

