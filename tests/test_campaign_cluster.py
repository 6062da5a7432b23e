"""Campaign integration of cluster cells: CLI rows, dispatch,
caching."""

import json

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.points import CampaignPoint
from repro.campaign.cli import main as campaign_cli
from repro.cluster.simulator import simulate_cluster
from repro.core.design_points import design_point
from repro.core.metrics import ExecutionMode
from repro.scenarios.dsl import DesignSpec, FleetSpec, Scenario
from repro.scenarios.lowering import lower_scenario
from repro.scenarios.runner import run_scenarios
from repro.units import TB

QUICK = dict(n_jobs=6, pool_capacity=1 * TB)


def cli_rows(capsys, *argv):
    """The JSON rows of one uncached, cluster-only 6-job campaign."""
    assert campaign_cli([*argv, "--strategies", "", "--cluster-jobs",
                         "6", "--pool-gb", "1024", "--no-cache",
                         "--quiet", "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def fleet_scenarios(designs, **fleet):
    return {design: Scenario(name=design, system=DesignSpec(design),
                             fleet=FleetSpec(**fleet))
            for design in designs}


class TestClusterGrid:
    def test_shape_and_labels(self, capsys):
        rows = cli_rows(capsys, "--designs", "DC-DLA,MC-DLA(B)",
                        "--policies", "fifo,sjf",
                        "--job-mixes", "balanced",
                        "--pool-oversub", "1,1.5")
        assert [r["design"] for r in rows] == [
            f"{design}|{policy}|balanced|os{oversub}"
            for oversub in ("1", "1.5") for policy in ("fifo", "sjf")
            for design in ("DC-DLA", "MC-DLA(B)")]
        assert all(r["mode"] == "cluster" for r in rows)
        assert all(r["network"] == "mix:balanced" for r in rows)

    def test_knobs_ride_in_cluster_tuple(self, capsys):
        (row,) = cli_rows(capsys, "--designs", "DC-DLA",
                          "--policies", "gang", "--seed", "7")
        direct = simulate_cluster(design_point("DC-DLA"), policy="gang",
                                  seed=7, arrival_rate=0.02, **QUICK)
        assert row["cluster"] == direct.cluster.to_dict()
        assert row["cluster"]["policy"] == "gang"
        assert row["cluster"]["pool_capacity"] == 1 * TB

    def test_describe_includes_cluster(self):
        scenarios = fleet_scenarios(("DC-DLA",), policy="gang", seed=7,
                                    preempt_after=60.0, **QUICK)
        description = lower_scenario(scenarios["DC-DLA"]).describe()
        knobs = dict(description["cluster"])
        assert knobs["policy"] == "gang"
        assert knobs["seed"] == 7
        assert knobs["preempt_after"] == 60.0
        # The description must be JSON-stable (it feeds the cache key).
        json.dumps(description, sort_keys=True)

    def test_serving_and_cluster_are_exclusive(self):
        with pytest.raises(ValueError):
            CampaignPoint("DC-DLA", "GPT2",
                          serving=(("rate", 100.0),),
                          cluster=(("policy", "fifo"),))


class TestClusterDispatch:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return fleet_scenarios(("MC-DLA(B)", "DC-DLA(O)"),
                               policy="fifo", **QUICK)

    def test_serial_run(self, scenarios):
        for outcome in run_scenarios(scenarios).values():
            assert outcome.result.mode is ExecutionMode.CLUSTER
            assert outcome.result.cluster is not None
            assert outcome.result.cluster.policy == "fifo"

    def test_pooled_matches_serial(self, scenarios):
        serial = run_scenarios(scenarios)
        pooled = run_scenarios(scenarios, jobs=2)
        for key, outcome in serial.items():
            assert outcome.ok
            assert outcome.result == pooled[key].result

    def test_cache_replay_byte_identical(self, scenarios, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_scenarios(scenarios, cache=cache)
        assert all(o.ok and not o.cached for o in cold.values())
        warm = run_scenarios(scenarios, cache=cache)
        assert all(o.cached for o in warm.values())
        for key, outcome in cold.items():
            assert json.dumps(outcome.result.to_dict(), sort_keys=True) \
                == json.dumps(warm[key].result.to_dict(), sort_keys=True)

    def test_failures_reported_per_cell(self):
        bad = fleet_scenarios(("MC-DLA(B)",), policy="fifo", n_jobs=6,
                              pool_capacity=1)  # nothing fits
        (outcome,) = run_scenarios(bad).values()
        assert not outcome.ok
        assert "pool" in outcome.error


class TestClusterCampaignCli:
    def test_cluster_cells_via_cli(self, tmp_path, capsys):
        out = tmp_path / "cluster.json"
        code = campaign_cli(["--designs", "MC-DLA(B)", "--strategies", "",
                             "--policies", "fifo", "--cluster-jobs", "6",
                             "--pool-gb", "1024", "--no-cache", "--quiet",
                             "--format", "json", "-o", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        row = rows[0]
        assert row["mode"] == "cluster"
        assert row["cluster"]["n_jobs"] == 6
        assert row["jct_p95"] >= row["jct_p50"] > 0

    def test_cluster_csv_columns(self, tmp_path):
        out = tmp_path / "cluster.csv"
        code = campaign_cli(["--designs", "MC-DLA(B)", "--strategies", "",
                             "--policies", "fifo", "--cluster-jobs", "6",
                             "--pool-gb", "1024", "--no-cache", "--quiet",
                             "--format", "csv", "-o", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["mode"] == "cluster"
        assert float(fields["jct_p95"]) > 0
        assert 0.0 <= float(fields["pool_utilization"]) <= 1.0
        assert fields["preemptions"] == "0"

    def test_unknown_policy_rejected(self, capsys):
        assert campaign_cli(["--policies", "wfq", "--quiet"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_mix_rejected(self, capsys):
        assert campaign_cli(["--policies", "fifo", "--job-mixes", "nope",
                             "--quiet"]) == 2
        assert "unknown job mix" in capsys.readouterr().err

    def test_table_renders_cluster_columns(self, capsys):
        code = campaign_cli(["--designs", "MC-DLA(B)", "--strategies", "",
                             "--policies", "fifo", "--cluster-jobs", "6",
                             "--pool-gb", "1024", "--no-cache", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "JCT p95" in out and "pool util" in out
        assert "jobs/h" in out
