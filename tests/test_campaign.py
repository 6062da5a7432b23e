"""Tests for the campaign layer: points, cache, runner, and CLI.

The acceptance property: evaluation-matrix cells are byte-identical
whether computed serially, via the process pool, or replayed from the
on-disk cache (frozen-dataclass equality compares every float exactly,
so ``==`` is the byte-identity assertion).
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.cache import (STALE_GENERATION_SECONDS, ResultCache,
                                  code_fingerprint)
from repro.campaign.cli import main as campaign_cli
from repro.campaign.points import CampaignPoint, canonicalize, grid
from repro.campaign.runner import CampaignError, run_campaign
from repro.core.design_points import design_point
from repro.core.metrics import SimulationResult
from repro.core.simulator import simulate
from repro.experiments.matrix import evaluation_points
from repro.interconnect.link import PCIE_GEN4
from repro.training.parallel import ParallelStrategy

SMALL_GRID = grid(("DC-DLA", "MC-DLA(B)"), ("AlexNet", "RNN-GEMV"),
                  (512,), (ParallelStrategy.DATA,))

SRC = Path(__file__).resolve().parents[1] / "src"

#: One writer process: appends one result under ``count`` keys of its
#: own plus one key every writer shares.
CACHE_WRITER = """
import json
import sys

from repro.campaign.cache import ResultCache
from repro.core.metrics import SimulationResult

root, name, count, payload = sys.argv[1:]
with open(payload) as handle:
    result = SimulationResult.from_dict(json.load(handle))
cache = ResultCache(root, code_version="pinned")
for index in range(int(count)):
    cache.put(f"{name}-{index}", result)
cache.put("shared", result)
"""


def _lethal_factory(design, **overrides):
    """Pool-worker factory that hard-kills its process for one design
    -- the shape of an OOM kill or segfault mid-cell (module-level so
    pool workers can unpickle it)."""
    if design == "MC-DLA(B)":
        import os
        os._exit(1)
    return design_point(design, **overrides)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestPoints:
    def test_grid_shape_and_order(self):
        points = grid(("DC-DLA",), ("AlexNet", "VGG-E"), (256, 512),
                      (ParallelStrategy.DATA, ParallelStrategy.MODEL))
        assert len(points) == 4 * 2
        assert points[0].strategy is ParallelStrategy.DATA
        assert points[-1].strategy is ParallelStrategy.MODEL
        assert points[0].batch == 256

    def test_build_config_with_overrides_and_replacements(self):
        point = CampaignPoint(
            "DC-DLA", "AlexNet",
            overrides=(("pcie", PCIE_GEN4),),
            replacements=(("offload_window", 4),))
        config = point.build_config()
        assert config.offload_window == 4
        assert config.vmem.channel.peak_bw \
            == pytest.approx(PCIE_GEN4.uni_bw)

    def test_label_defaults_to_design(self):
        point = CampaignPoint("DC-DLA", "AlexNet")
        assert point.name == "DC-DLA"
        assert CampaignPoint("DC-DLA", "AlexNet", label="x").name == "x"

    def test_canonicalize_is_json_stable(self):
        payload = canonicalize((("pcie", PCIE_GEN4),
                                ("strategy", ParallelStrategy.DATA)))
        assert json.dumps(payload) == json.dumps(payload)
        assert "__dataclass__" in json.dumps(payload)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            CampaignPoint("DC-DLA", "AlexNet", batch=0)


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        result = simulate(design_point("DC-DLA"), "AlexNet", 512,
                          ParallelStrategy.DATA)
        replayed = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert replayed == result
        assert replayed.breakdown == result.breakdown

    def test_strategy_survives(self):
        result = simulate(design_point("MC-DLA(B)"), "RNN-GEMV", 512,
                          ParallelStrategy.MODEL)
        replayed = SimulationResult.from_dict(result.to_dict())
        assert replayed.strategy is ParallelStrategy.MODEL


def _age(directory, seconds: float) -> None:
    """Set ``directory``'s modification time ``seconds`` into the past."""
    stamp = time.time() - seconds
    os.utime(directory, (stamp, stamp))


def _rewrite_entry(cache, rewrite) -> str:
    """Replace the JSON of the one line in ``cache``'s one log with
    ``rewrite(json_text)``; return the line's key."""
    (log,) = cache.generation_root.glob("*.log")
    key, _, payload = log.read_text().rstrip("\n").partition(" ")
    log.write_text(f"{key} {rewrite(payload)}\n")
    return key


class TestCache:
    def test_miss_then_hit(self, cache):
        first = run_campaign(SMALL_GRID, cache=cache)
        assert all(not o.cached for o in first.outcomes)
        assert len(cache) == len(SMALL_GRID)
        second = run_campaign(SMALL_GRID, cache=cache)
        assert all(o.cached for o in second.outcomes)
        assert second.results == first.results

    def test_code_version_invalidates_and_prunes(self, tmp_path):
        old = ResultCache(tmp_path, code_version="v-old")
        new = ResultCache(tmp_path, code_version="v-new")
        run_campaign(SMALL_GRID[:1], cache=old)
        assert old.generation_root.is_dir()
        _age(old.generation_root, STALE_GENERATION_SECONDS + 60)
        report = run_campaign(SMALL_GRID[:1], cache=new)
        assert not report.outcomes[0].cached
        # The first write of the new generation prunes the stale one.
        assert not old.generation_root.exists()
        assert len(new) == 1

    def test_generation_in_use_survives_other_versions(self, tmp_path):
        """Two checkouts sharing a cache keep each other's entries."""
        old = ResultCache(tmp_path, code_version="v-old")
        new = ResultCache(tmp_path, code_version="v-new")
        run_campaign(SMALL_GRID[:1], cache=old)
        run_campaign(SMALL_GRID[:1], cache=new)
        assert len(old) == 1 and len(new) == 1
        replay = run_campaign(SMALL_GRID[:1],
                              cache=ResultCache(tmp_path,
                                                code_version="v-old"))
        assert replay.outcomes[0].cached

    def test_generation_stamped_eight_days_ago_is_pruned(self, tmp_path):
        old = ResultCache(tmp_path, code_version="v-old")
        run_campaign(SMALL_GRID[:1], cache=old)
        _age(old.generation_root, 8 * 24 * 3600)
        run_campaign(SMALL_GRID[:1],
                     cache=ResultCache(tmp_path, code_version="v-new"))
        assert not old.generation_root.exists()

    def test_first_hit_stamps_generation(self, tmp_path):
        old = ResultCache(tmp_path, code_version="v-old")
        run_campaign(SMALL_GRID[:1], cache=old)
        _age(old.generation_root, 8 * 24 * 3600)
        reader = ResultCache(tmp_path, code_version="v-old")
        assert run_campaign(SMALL_GRID[:1], cache=reader).outcomes[0].cached
        run_campaign(SMALL_GRID[:1],
                     cache=ResultCache(tmp_path, code_version="v-new"))
        assert len(old) == 1

    def test_corrupt_entry_is_a_miss(self, cache):
        run_campaign(SMALL_GRID[:1], cache=cache)
        _rewrite_entry(cache, lambda payload: "{not json")
        report = run_campaign(SMALL_GRID[:1],
                              cache=ResultCache(cache.root))
        assert not report.outcomes[0].cached
        assert report.outcomes[0].ok

    @pytest.mark.parametrize("payload", ("[]", "null", '"s"', "3"))
    def test_non_object_entry_is_a_miss(self, cache, payload):
        # Valid JSON that is not an object reads as a miss, like a
        # corrupt line, and the cell is simulated again.
        run_campaign(SMALL_GRID[:1], cache=cache)
        key = _rewrite_entry(cache, lambda _: payload)
        fresh = ResultCache(cache.root)
        misses = fresh.misses
        assert fresh.get(key) is None
        assert fresh.misses == misses + 1
        report = run_campaign(SMALL_GRID[:1], cache=fresh)
        assert report.outcomes[0].ok
        assert not report.outcomes[0].cached

    @pytest.mark.parametrize("mutate", [
        lambda data: {"system": data["system"]},
        lambda data: {**data, "mode": "bogus"},
        lambda data: {**data, "bogus": 1},
    ], ids=["missing-fields", "unknown-enum", "unknown-key"])
    def test_object_entry_that_does_not_decode_is_a_miss(self, cache,
                                                          mutate):
        # A JSON object that is not a result's image reads as a miss,
        # and the cell is simulated again.
        run_campaign(SMALL_GRID[:1], cache=cache)
        key = _rewrite_entry(
            cache, lambda text: json.dumps(mutate(json.loads(text))))
        fresh = ResultCache(cache.root)
        misses = fresh.misses
        assert fresh.get(key) is None
        assert fresh.misses == misses + 1
        report = run_campaign(SMALL_GRID[:1], cache=fresh)
        assert report.outcomes[0].ok
        assert not report.outcomes[0].cached

    def test_two_writers_share_a_root(self, tmp_path):
        """Two instances on one root each append to their own log, and
        a third replays every cell either wrote."""
        results = [o.result for o in run_campaign(SMALL_GRID[:3]).outcomes]
        keys = [f"{i:064x}" for i in range(3)]
        first, second = ResultCache(tmp_path), ResultCache(tmp_path)
        # Neither has looked a key up, so both write the shared cell.
        for key, result in zip(keys[:2], results[:2]):
            first.put(key, result)
        for key, result in zip(keys[1:], results[1:]):
            second.put(key, result)
        reader = ResultCache(tmp_path)
        assert [reader.get(key) for key in keys] == results
        assert (reader.hits, reader.misses) == (3, 0)
        assert len(reader) == 3
        entries = list(reader.generation_root.iterdir())
        assert sorted(entry.suffix for entry in entries) == [".log",
                                                             ".log"]
        assert not any(entry.is_dir() for entry in entries)

    def test_concurrent_writer_processes_keep_every_entry(self, tmp_path):
        """Three writer processes (more than this suite's two cores)
        append to one root at once; no entry is lost or torn."""
        (result,) = [o.result for o in run_campaign(SMALL_GRID[:1]).outcomes]
        payload = tmp_path / "result.json"
        payload.write_text(json.dumps(result.to_dict()))
        root = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        names, count = ("a", "b", "c"), 400
        writers = [subprocess.Popen(
            [sys.executable, "-c", CACHE_WRITER, str(root), name,
             str(count), str(payload)], env=env) for name in names]
        try:
            codes = [writer.wait(timeout=120) for writer in writers]
        finally:
            for writer in writers:
                writer.kill()
                writer.wait()
        assert codes == [0, 0, 0]
        reader = ResultCache(root, code_version="pinned")
        keys = [f"{name}-{index}" for name in names
                for index in range(count)] + ["shared"]
        assert len(reader) == len(keys)
        assert all(reader.get(key) == result for key in keys)
        assert (reader.hits, reader.misses) == (len(keys), 0)
        assert len(list(reader.generation_root.glob("*.log"))) == 3

    def test_torn_final_line_is_a_miss(self, cache):
        """A writer cut off mid-entry leaves a last line without its
        newline: it is ignored, and the lines before it replay."""
        run_campaign(SMALL_GRID[:2], cache=cache)
        (log,) = cache.generation_root.glob("*.log")
        text = log.read_bytes()
        assert text.count(b"\n") == 2
        log.write_bytes(text[:-10])
        fresh = ResultCache(cache.root)
        assert len(fresh) == 1
        report = run_campaign(SMALL_GRID[:2], cache=fresh)
        assert [o.cached for o in report.outcomes] == [True, False]
        assert all(o.ok for o in report.outcomes)

    def test_resimulated_corrupt_cell_replays(self, cache):
        """A bad line never hides a good one: once the cell is
        simulated again, a fresh instance replays it."""
        first = run_campaign(SMALL_GRID[:1], cache=cache)
        _rewrite_entry(cache, lambda payload: payload[:-1])
        again = run_campaign(SMALL_GRID[:1],
                             cache=ResultCache(cache.root))
        assert not again.outcomes[0].cached
        replay = run_campaign(SMALL_GRID[:1],
                              cache=ResultCache(cache.root))
        assert replay.outcomes[0].cached
        assert replay.results == first.results
        # The key is on disk twice, the corrupt line and the new one.
        assert len(list(cache.generation_root.glob("*.log"))) == 2
        assert len(ResultCache(cache.root)) == 1

    def test_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestRunner:
    def test_serial_pool_and_replay_are_byte_identical(self, cache):
        """The acceptance criterion, on the paper's full grid."""
        points = evaluation_points(512)
        serial = run_campaign(points, jobs=1)
        pooled = run_campaign(points, jobs=2, cache=cache)
        replayed = run_campaign(points, jobs=1, cache=cache)
        assert all(o.cached for o in replayed.outcomes)
        assert serial.results == pooled.results
        assert serial.results == replayed.results

    def test_failing_cell_does_not_kill_the_sweep(self):
        bad = CampaignPoint("DC-DLA", "AlexNet",
                            replacements=(("offload_window", 0),),
                            label="broken")
        report = run_campaign(SMALL_GRID + (bad,))
        assert len(report.failures) == 1
        assert "windows must be >= 1" in report.failures[0].error
        assert sum(o.ok for o in report.outcomes) == len(SMALL_GRID)
        with pytest.raises(CampaignError):
            report.raise_failures()

    def test_failing_cell_in_pool(self):
        bad = CampaignPoint("DC-DLA", "AlexNet",
                            replacements=(("offload_window", 0),),
                            label="broken")
        report = run_campaign(SMALL_GRID + (bad,), jobs=2)
        assert len(report.failures) == 1
        assert sum(o.ok for o in report.outcomes) == len(SMALL_GRID)

    def test_worker_death_recovers_surviving_cells(self):
        """Regression: a worker hard-exit breaks the whole pool, so
        every in-flight cell sees ``BrokenProcessPool``.  Innocent
        cells must still produce their (byte-identical) results; only
        the cell that kills its private retry worker again is failed,
        with a clear error."""
        points = grid(("DC-DLA", "HC-DLA", "MC-DLA(B)"), ("AlexNet",),
                      (256,), (ParallelStrategy.DATA,))
        report = run_campaign(points, jobs=2, factory=_lethal_factory)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.point.design == "MC-DLA(B)"
        assert "worker process died" in failure.error
        assert "MC-DLA(B)" in failure.error
        survivors = [o for o in report.outcomes if o.ok]
        assert len(survivors) == 2
        healthy = run_campaign([o.point for o in survivors])
        assert {o.point.key: o.result
                for o in survivors} == healthy.results

    def test_each_distinct_config_is_built_once_per_run(self, cache):
        calls = []

        def counting_factory(design, **overrides):
            calls.append(design)
            return design_point(design, **overrides)

        window = [CampaignPoint(point.design, point.network,
                                replacements=(("offload_window", 4),),
                                label=f"{point.design}|w4")
                  for point in SMALL_GRID if point.design == "DC-DLA"]
        points = SMALL_GRID + tuple(window)
        # Three (design, overrides, replacements) triples over six cells;
        # the serial path simulates on the configs the keys built.
        run_campaign(points, cache=cache, factory=counting_factory)
        assert len(calls) == 3
        replay = run_campaign(points, cache=cache, factory=counting_factory)
        assert all(o.cached for o in replay.outcomes)
        assert len(calls) == 6  # a new run builds its configs afresh
        run_campaign(points, factory=counting_factory)
        assert len(calls) == 9

    def test_unhashable_override_value_runs_and_replays(self, cache):
        def tagged(design, tags=()):
            return design_point(design)

        point = CampaignPoint("DC-DLA", "AlexNet",
                              overrides=(("tags", ["a", "b"]),))
        first = run_campaign([point], cache=cache, factory=tagged)
        assert first.outcomes[0].ok and not first.outcomes[0].cached
        replay = run_campaign([point], cache=cache, factory=tagged)
        assert replay.outcomes[0].cached
        assert replay.results == first.results

    def test_key_tracks_nested_config_fields(self, tmp_path):
        def faster_hbm(design, **overrides):
            config = design_point(design, **overrides)
            hbm = dataclasses.replace(
                config.device.hbm,
                bandwidth=config.device.hbm.bandwidth * 2)
            return dataclasses.replace(
                config, device=dataclasses.replace(config.device, hbm=hbm))

        cache = ResultCache(tmp_path, code_version="pinned")
        point = CampaignPoint("MC-DLA(B)", "AlexNet")
        assert point.describe(design_point) == point.describe(design_point)
        assert cache.key(point.describe(design_point), "f") \
            != cache.key(point.describe(faster_hbm), "f")

    def test_duplicate_keys_rejected(self):
        clash = CampaignPoint("DC-DLA", "AlexNet", label="x")
        other = CampaignPoint("MC-DLA(B)", "AlexNet", label="x")
        with pytest.raises(ValueError, match="unique label"):
            run_campaign((clash, other))

    def test_result_lookup(self):
        report = run_campaign(SMALL_GRID)
        result = report.result("DC-DLA", "AlexNet", 512,
                               ParallelStrategy.DATA)
        assert result.system == "DC-DLA"
        with pytest.raises(KeyError):
            report.result("DC-DLA", "nope", 512, ParallelStrategy.DATA)

    def test_progress_callback(self):
        seen = []
        run_campaign(SMALL_GRID,
                     progress=lambda o, done, total:
                     seen.append((done, total)))
        assert seen == [(i + 1, len(SMALL_GRID))
                        for i in range(len(SMALL_GRID))]


class TestCli:
    def test_json_output(self, tmp_path, capsys):
        code = campaign_cli([
            "--designs", "DC-DLA", "--networks", "AlexNet",
            "--strategies", "data", "--no-cache", "--format", "json",
            "--quiet"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["design"] == "DC-DLA"
        assert rows[0]["iteration_time"] > 0

    def test_second_run_hits_cache(self, tmp_path, capsys):
        argv = ["--designs", "MC-DLA(B)", "--networks", "RNN-GEMV",
                "--strategies", "data", "--cache-dir",
                str(tmp_path / "c"), "--quiet"]
        assert campaign_cli(argv) == 0
        first = capsys.readouterr().err
        assert "0 from cache, 1 simulated" in first
        assert campaign_cli(argv) == 0
        second = capsys.readouterr().err
        assert "1 from cache, 0 simulated" in second

    def test_csv_output_to_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = campaign_cli([
            "--designs", "DC-DLA", "--networks", "AlexNet",
            "--strategies", "data", "--no-cache", "--format", "csv",
            "--output", str(out), "--quiet"])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert header.startswith("design,network,batch,strategy")
        assert row.startswith("DC-DLA,AlexNet,512,data-parallel")

    def test_unknown_design_rejected(self, capsys):
        assert campaign_cli(["--designs", "NOPE"]) == 2
        assert "unknown design" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--strategies", "pipeline", "--microbatches", "0"],
         "microbatches"),
        (["--arrival-rates", "0"], "arrival rate"),
        (["--policies", "fifo", "--pool-oversub", "0.5"],
         "oversubscription"),
        (["--policies", "fifo", "--cluster-jobs", "0"], "n_jobs"),
        (["--strategies", "bogus"], "bogus"),
        (["-j", "-1"], "--jobs must be >= 0"),
        (["--strategies", "pipeline", "--batches", "3"], "not divisible"),
        (["--arrival-rates", ","], "--arrival-rates"),
        (["--arrival-rates", "400", "--slo-ms", ","], "--slo-ms"),
        (["--arrival-rates", "400", "--batch-policies", ","],
         "--batch-policies"),
        (["--policies", ","], "--policies"),
        (["--policies", "fifo", "--job-mixes", ","], "--job-mixes"),
        (["--policies", "fifo", "--pool-oversub", ","], "--pool-oversub"),
    ], ids=["microbatches", "arrival-rate", "oversub", "cluster-jobs",
            "strategy", "jobs", "pipeline-batch", "empty-rates",
            "empty-slos", "empty-batch-policies", "empty-policies",
            "empty-job-mixes", "empty-pool-oversub"])
    def test_bad_value_exits_2_before_any_cell(self, capsys, argv,
                                               named):
        code = campaign_cli(["--designs", "DC-DLA", "--networks",
                             "GPT2", "--batches", "64", "--no-cache",
                             *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "campaign:" not in err  # no cell ran

    def test_aliases_resolve_to_one_row(self, capsys):
        code = campaign_cli([
            "--designs", "mc-hbm,MC-DLA(B)", "--networks", "alexnet",
            "--strategies", "data", "--fault-models", "healthy",
            "--no-cache", "--format", "json", "--quiet"])
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert (row["design"], row["network"]) \
            == ("MC-DLA(B)|none", "AlexNet")


class TestMatrixIntegration:
    def test_matrix_via_cache_matches_uncached(self, tmp_path):
        from repro.experiments.matrix import compute_evaluation_matrix
        cache = ResultCache(tmp_path / "m")
        fresh = compute_evaluation_matrix(512)
        warmed = compute_evaluation_matrix(512, cache=cache)
        replayed = compute_evaluation_matrix(512, jobs=2, cache=cache)
        assert fresh.results == warmed.results
        assert fresh.results == replayed.results
