"""Tests for repro.cluster: jobs, oracle, pool, policies, event loop."""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.jobs import (JOB_MIX_NAMES, JobKind, JobSpec,
                                generate_jobs)
from repro.cluster.oracle import CostOracle, JobProfile, policy_exposure
from repro.cluster.policies import (QueueEntry, Release, earliest_start,
                                    select_next)
from repro.cluster.pool import MemoryPool, spill_dilation, spill_penalty
from repro.cluster.simulator import (_Ledger, fold_stats, percentile,
                                     simulate_cluster)
from repro.core import pricing
from repro.core.design_points import design_point
from repro.core.metrics import ClusterStats, ExecutionMode, SimulationResult
from repro.core.simulator import simulate
from repro.training.parallel import ParallelStrategy
from repro.units import GB, TB


@pytest.fixture(scope="module")
def mc_config():
    return design_point("MC-DLA(B)")


@pytest.fixture(scope="module")
def dc_config():
    return design_point("DC-DLA")


def profile_of(devices, service, pool_bytes, *, jid=0, arrival=0.0,
               state_bytes=0, vmem_share=0.5, preemptible=True,
               network="AlexNet"):
    """A hand-built profile for policy/loop tests (no oracle)."""
    spec = JobSpec(jid=jid, arrival=arrival, kind=JobKind.TRAINING,
                   network=network, batch=512, iterations=1,
                   width=devices)
    return JobProfile(spec=spec, devices=devices, service=service,
                      pool_bytes=pool_bytes, state_bytes=state_bytes,
                      vmem_share=vmem_share, preemptible=preemptible)


class TestJobGeneration:
    def test_deterministic(self):
        a = generate_jobs("balanced", 16, seed=3)
        b = generate_jobs("balanced", 16, seed=3)
        assert a == b

    def test_seed_changes_stream(self):
        assert generate_jobs("balanced", 16, seed=0) != \
            generate_jobs("balanced", 16, seed=1)

    def test_arrivals_monotone_and_ids_sequential(self):
        jobs = generate_jobs("training", 32, seed=0)
        assert [j.jid for j in jobs] == list(range(32))
        assert all(a.arrival <= b.arrival
                   for a, b in zip(jobs, jobs[1:]))

    def test_widths_respect_node(self):
        jobs = generate_jobs("balanced", 64, seed=0, node_width=4)
        assert all(j.width <= 4 for j in jobs)

    def test_serving_jobs_have_rates(self):
        jobs = generate_jobs("serving", 16, seed=0)
        assert all(j.kind is JobKind.SERVING and j.rate > 0
                   for j in jobs)

    def test_every_mix_generates(self):
        for mix in JOB_MIX_NAMES:
            assert len(generate_jobs(mix, 4, seed=0)) == 4

    def test_validation(self):
        with pytest.raises(KeyError):
            generate_jobs("nope", 4)
        with pytest.raises(ValueError):
            generate_jobs("balanced", 0)
        with pytest.raises(ValueError):
            generate_jobs("balanced", 4, arrival_rate=0.0)
        with pytest.raises(ValueError):
            JobSpec(jid=0, arrival=-1.0, kind=JobKind.TRAINING,
                    network="AlexNet", batch=512)
        with pytest.raises(ValueError):
            JobSpec(jid=0, arrival=0.0, kind=JobKind.SERVING,
                    network="GPT2", batch=8, rate=0.0)


class TestCostOracle:
    def test_training_width_scaling(self, mc_config):
        oracle = CostOracle(mc_config)
        full = oracle.profile(JobSpec(
            jid=0, arrival=0.0, kind=JobKind.TRAINING,
            network="AlexNet", batch=512, iterations=10, width=8))
        half = oracle.profile(JobSpec(
            jid=1, arrival=0.0, kind=JobKind.TRAINING,
            network="AlexNet", batch=512, iterations=10, width=4))
        assert full.devices == 8 and half.devices == 4
        # Work conserved: half the devices, twice the time.
        assert half.service == pytest.approx(2 * full.service)
        # Per-device working set is constant (weak scaling).
        assert half.pool_bytes * 2 == full.pool_bytes

    def test_pool_bytes_zero_without_virtualization(self):
        oracle = CostOracle(design_point("DC-DLA(O)"))
        profile = oracle.profile(JobSpec(
            jid=0, arrival=0.0, kind=JobKind.TRAINING,
            network="VGG-E", batch=512, iterations=5, width=8))
        assert profile.pool_bytes == 0

    def test_pipeline_gangs_whole_node(self, mc_config):
        oracle = CostOracle(mc_config)
        profile = oracle.profile(JobSpec(
            jid=0, arrival=0.0, kind=JobKind.PIPELINE,
            network="GPT2", batch=256, iterations=4, width=1))
        assert profile.devices == mc_config.n_devices
        assert profile.preemptible

    def test_serving_tenants_not_preemptible(self, mc_config):
        oracle = CostOracle(mc_config)
        profile = oracle.profile(JobSpec(
            jid=0, arrival=0.0, kind=JobKind.SERVING,
            network="GPT2", batch=8, rate=100.0, trace_seed=1))
        assert not profile.preemptible
        assert profile.devices == mc_config.n_devices
        assert profile.service > 0

    def test_stall_beyond_migration_raises(self, dc_config):
        config = dataclasses.replace(dc_config, prefetch_policy="stride")
        result = simulate(config, "AlexNet", 512, ParallelStrategy.DATA)
        vmem = result.breakdown.vmem
        assert 0.0 <= policy_exposure(result) <= 1.0
        stall = 2.0 * vmem
        bad = dataclasses.replace(result, prefetch=dataclasses.replace(
            result.prefetch, stall_seconds=stall))
        with pytest.raises(ValueError, match="DC-DLA") as info:
            policy_exposure(bad)
        assert repr(stall) in str(info.value)
        assert repr(vmem) in str(info.value)

    def test_memoizes_by_job_class(self, mc_config, monkeypatch):
        drives = []

        def counting_simulate(*args, **kwargs):
            drives.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr("repro.cluster.oracle.simulate",
                            counting_simulate)
        pricing.clear_caches()
        oracle = CostOracle(mc_config)
        spec = JobSpec(jid=0, arrival=0.0, kind=JobKind.TRAINING,
                       network="AlexNet", batch=512, iterations=3,
                       width=8)
        oracle.profile(spec)
        assert len(drives) == 1
        oracle.profile(JobSpec(jid=1, arrival=9.0,
                               kind=JobKind.TRAINING,
                               network="AlexNet", batch=512,
                               iterations=7, width=2))
        assert len(drives) == 1  # same class, no new simulate


class TestMemoryPool:
    def test_reserve_release_roundtrip(self):
        pool = MemoryPool(100)
        assert pool.fits(100) and not pool.fits(101)
        pool.reserve(60)
        assert pool.reserved == 60 and not pool.fits(41)
        pool.release(60)
        assert pool.reserved == 0

    def test_oversubscription_raises_limit(self):
        pool = MemoryPool(100, oversubscription=1.5)
        pool.reserve(150)
        assert pool.overflow_fraction == pytest.approx(50 / 150)
        assert pool.utilization == 1.0
        assert pool.pressure == pytest.approx(1.5)
        with pytest.raises(ValueError):
            pool.reserve(1)

    def test_no_overflow_below_capacity(self):
        pool = MemoryPool(100)
        pool.reserve(80)
        assert pool.overflow_fraction == 0.0
        assert pool.utilization == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryPool(0)
        with pytest.raises(ValueError):
            MemoryPool(100, oversubscription=0.5)
        pool = MemoryPool(100)
        with pytest.raises(ValueError):
            pool.release(1)

    def test_spill_penalty_by_design(self, mc_config, dc_config):
        # DC virtualizes over PCIe already: spilling costs nothing.
        assert spill_penalty(dc_config) == 0.0
        # MC falls from its fast links onto PCIe: a real penalty.
        assert spill_penalty(mc_config) > 1.0
        assert spill_penalty(design_point("DC-DLA(O)")) == 0.0

    def test_spill_dilation(self):
        profile = profile_of(4, 10.0, 50 * GB, vmem_share=0.5)
        assert spill_dilation(profile, 0.0, 8.0) == 1.0
        assert spill_dilation(profile, 0.5, 8.0) == pytest.approx(3.0)
        no_pool = profile_of(4, 10.0, 0)
        assert spill_dilation(no_pool, 0.9, 8.0) == 1.0
        with pytest.raises(ValueError):
            spill_dilation(profile, 1.5, 8.0)
        with pytest.raises(ValueError):
            spill_dilation(profile, 0.5, -1.0)


class TestPolicies:
    def queue(self, *profiles):
        return [QueueEntry(p, p.service) for p in profiles]

    def test_fifo_blocks_on_head(self):
        big = profile_of(8, 10.0, 0, jid=0)
        small = profile_of(1, 1.0, 0, jid=1)
        pool = MemoryPool(1 * TB)
        queue = self.queue(big, small)
        assert select_next("fifo", queue, 4, pool) is None
        assert select_next("fifo", queue, 8, pool) == 0

    def test_sjf_picks_shortest_fitting(self):
        pool = MemoryPool(1 * TB)
        queue = self.queue(profile_of(8, 5.0, 0, jid=0),
                           profile_of(2, 9.0, 0, jid=1),
                           profile_of(2, 3.0, 0, jid=2))
        assert select_next("sjf", queue, 2, pool) == 2

    def test_pool_fit_packs_biggest_reservation(self):
        pool = MemoryPool(100 * GB)
        queue = self.queue(
            profile_of(2, 5.0, 90 * GB, jid=0),   # too big: 10 free
            profile_of(1, 5.0, 6 * GB, jid=1),
            profile_of(1, 5.0, 9 * GB, jid=2))
        pool.reserve(90 * GB)
        assert select_next("pool-fit", queue, 8, pool) == 2

    def test_gang_backfills_only_short_jobs(self):
        pool = MemoryPool(1 * TB)
        head = profile_of(8, 50.0, 0, jid=0)      # needs the node
        long_fill = profile_of(2, 100.0, 0, jid=1)
        short_fill = profile_of(2, 5.0, 0, jid=2)
        queue = self.queue(head, long_fill, short_fill)
        # 4 devices free; the other 4 release in 10s -> head starts
        # then.  Only the 5s job may jump the queue.
        releases = (Release(time=10.0, devices=4, pool_bytes=0),)
        assert select_next("gang", queue, 4, pool, releases) == 2

    def test_gang_starts_head_when_it_fits(self):
        pool = MemoryPool(1 * TB)
        queue = self.queue(profile_of(4, 50.0, 0, jid=0))
        assert select_next("gang", queue, 8, pool) == 0

    def test_earliest_start_walks_releases(self):
        pool = MemoryPool(100 * GB)
        pool.reserve(80 * GB)
        entry = QueueEntry(profile_of(6, 1.0, 50 * GB), 1.0)
        releases = (Release(time=5.0, devices=4, pool_bytes=0),
                    Release(time=9.0, devices=4, pool_bytes=60 * GB))
        assert earliest_start(entry, 2, pool, releases) == 9.0
        assert earliest_start(entry, 2, pool, ()) is None

    def test_empty_queue_and_unknown_policy(self):
        pool = MemoryPool(1 * TB)
        assert select_next("fifo", [], 8, pool) is None
        with pytest.raises(KeyError):
            select_next("wfq", self.queue(profile_of(1, 1.0, 0)), 8,
                        pool)


class TestClusterSimulator:
    def synthetic(self, *widths_services, arrival_gap=0.0):
        jobs = []
        for i, (width, iters) in enumerate(widths_services):
            jobs.append(JobSpec(jid=i, arrival=i * arrival_gap,
                                kind=JobKind.TRAINING,
                                network="AlexNet", batch=512,
                                iterations=iters, width=width))
        return tuple(jobs)

    def test_conservation_and_causality(self, mc_config):
        jobs = self.synthetic((8, 4), (4, 2), (2, 3), (1, 5),
                              arrival_gap=1.0)
        result = simulate_cluster(mc_config, jobs=jobs,
                                  fleet_devices=8)
        stats = result.cluster
        assert stats.n_jobs == len(jobs)
        assert stats.jct_p50 <= stats.jct_p95
        assert stats.queue_delay_mean >= 0.0
        assert stats.makespan == result.iteration_time

    def test_serial_fifo_makespan(self, mc_config):
        # Two node-wide jobs arriving together must serialize.
        oracle = CostOracle(mc_config)
        jobs = self.synthetic((8, 5), (8, 5))
        one = oracle.profile(jobs[0]).service
        result = simulate_cluster(mc_config, jobs=jobs,
                                  fleet_devices=8, policy="fifo")
        assert result.cluster.makespan == pytest.approx(2 * one)
        assert result.cluster.device_utilization == pytest.approx(1.0)

    def test_narrow_jobs_run_concurrently(self, mc_config):
        oracle = CostOracle(mc_config)
        jobs = self.synthetic((4, 5), (4, 5))
        one = oracle.profile(jobs[0]).service
        result = simulate_cluster(mc_config, jobs=jobs,
                                  fleet_devices=8)
        assert result.cluster.makespan == pytest.approx(one)

    def test_mode_and_result_roundtrip(self, mc_config):
        result = simulate_cluster(mc_config, n_jobs=6, seed=1)
        assert result.mode is ExecutionMode.CLUSTER
        rebuilt = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result

    def test_cluster_stats_roundtrip_exact(self, mc_config):
        stats = simulate_cluster(mc_config, n_jobs=6, seed=2).cluster
        rebuilt = ClusterStats.from_dict(
            json.loads(json.dumps(stats.to_dict())))
        assert rebuilt == stats

    def test_deterministic_across_runs(self, mc_config):
        a = simulate_cluster(mc_config, policy="sjf", n_jobs=10,
                             seed=4)
        b = simulate_cluster(mc_config, policy="sjf", n_jobs=10,
                             seed=4)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)

    def test_pool_contention_queues_jobs(self, mc_config):
        # Two jobs whose reservations cannot coexist in a tiny pool.
        jobs = self.synthetic((8, 5), (8, 5))
        oracle = CostOracle(mc_config)
        need = oracle.profile(jobs[0]).pool_bytes
        contended = simulate_cluster(
            mc_config, jobs=jobs, fleet_devices=16,
            pool_capacity=need + need // 2)
        roomy = simulate_cluster(
            mc_config, jobs=jobs, fleet_devices=16,
            pool_capacity=4 * need)
        assert contended.cluster.jct_p95 > roomy.cluster.jct_p95
        assert contended.cluster.fragmentation > 0.0

    def test_oversubscription_admits_but_dilates(self, mc_config):
        jobs = self.synthetic((8, 5), (8, 5))
        oracle = CostOracle(mc_config)
        need = oracle.profile(jobs[0]).pool_bytes
        capacity = need + need // 2
        strict = simulate_cluster(mc_config, jobs=jobs,
                                  fleet_devices=16,
                                  pool_capacity=capacity)
        oversub = simulate_cluster(mc_config, jobs=jobs,
                                   fleet_devices=16,
                                   pool_capacity=capacity,
                                   oversubscription=2.0)
        # Both jobs now run side by side: no queueing...
        assert oversub.cluster.queue_delay_mean == 0.0
        assert strict.cluster.queue_delay_mean > 0.0
        # ...but the overflow spills, so each runs slower than alone.
        solo = oracle.profile(jobs[0]).service
        assert oversub.cluster.makespan > solo
        assert oversub.cluster.pool_pressure > 1.0

    def test_preemption_unblocks_and_bills_checkpoints(self, mc_config):
        oracle = CostOracle(mc_config)
        long_job = JobSpec(jid=0, arrival=0.0, kind=JobKind.TRAINING,
                           network="AlexNet", batch=512,
                           iterations=400, width=8)
        late = JobSpec(jid=1, arrival=1.0, kind=JobKind.TRAINING,
                       network="AlexNet", batch=512, iterations=5,
                       width=8)
        blocked = simulate_cluster(mc_config, jobs=(long_job, late),
                                   fleet_devices=8)
        assert blocked.cluster.preemptions == 0
        solo = oracle.profile(long_job).service
        preempting = simulate_cluster(mc_config,
                                      jobs=(long_job, late),
                                      fleet_devices=8,
                                      preempt_after=2.0)
        stats = preempting.cluster
        assert stats.preemptions >= 1
        assert stats.checkpoint_bytes > 0
        assert preempting.breakdown.vmem > 0.0
        # The long job pays the checkpoint/restore on top of its work.
        assert stats.makespan > solo

    def test_serving_tenants_survive_preemption_pressure(self,
                                                         mc_config):
        tenant = JobSpec(jid=0, arrival=0.0, kind=JobKind.SERVING,
                         network="GPT2", batch=8, rate=50.0,
                         trace_seed=0)
        late = JobSpec(jid=1, arrival=0.5, kind=JobKind.TRAINING,
                       network="AlexNet", batch=512, iterations=5,
                       width=8)
        result = simulate_cluster(mc_config, jobs=(tenant, late),
                                  fleet_devices=8, preempt_after=1.0)
        # The tenant is not preemptible: the trainer must wait.
        assert result.cluster.preemptions == 0

    def test_validation(self, mc_config):
        with pytest.raises(ValueError):
            simulate_cluster(mc_config, fleet_devices=4)  # < node
        with pytest.raises(ValueError):
            simulate_cluster(mc_config, n_jobs=4,
                             pool_capacity=1 * GB)  # jobs can't fit
        with pytest.raises(ValueError):
            simulate_cluster(mc_config, n_jobs=4, preempt_after=0.0)
        with pytest.raises(KeyError):
            simulate_cluster(mc_config, n_jobs=4, policy="wfq")
        with pytest.raises(ValueError):
            simulate_cluster(mc_config, jobs=())

    @pytest.mark.parametrize("integral, name", [
        ("busy_device_seconds", "device_utilization"),
        ("pool_util_seconds", "pool_utilization"),
        ("frag_seconds", "fragmentation"),
    ])
    def test_fraction_above_one_raises(self, integral, name):
        # An integral past its bound (fleet x makespan device-seconds,
        # makespan seconds for the pool and fragmentation) is an
        # accounting slip: folding it must raise, not clamp to 1.
        spec = JobSpec(jid=0, arrival=0.0, kind=JobKind.TRAINING,
                       network="AlexNet", batch=512)
        ledger = _Ledger(finished=[(spec, 0.0, 2.0)])
        setattr(ledger, integral, 2.0 * 16 * 1.001)
        with pytest.raises(ValueError, match=name):
            fold_stats(ledger, 2.0, policy="fifo", job_mix="balanced",
                       fleet_devices=16, pool=MemoryPool(capacity=1 * TB))

    def test_backfill_window_uses_dilated_wall_clock(self, mc_config):
        """A backfill candidate that fits the head gang's window only
        when quoting its undilated runtime must be held back once its
        own spill overflow is priced in."""
        from repro.cluster.simulator import estimated_wall_seconds
        pool = MemoryPool(100 * GB, oversubscription=2.0)
        pool.reserve(90 * GB)
        profile = profile_of(2, 9.0, 60 * GB, vmem_share=1.0)
        penalty = spill_penalty(mc_config)
        wall = estimated_wall_seconds(9.0, profile, pool, penalty)
        # (90 + 60 resident over 100 physical) spills 1/3 of pages.
        assert wall == pytest.approx(9.0 * (1 + penalty / 3))
        # Against a 10s head reservation, only the dilated figure
        # makes gang backfill reject the candidate.
        head = profile_of(8, 50.0, 0, jid=0)
        queue = [QueueEntry(head, 50.0), QueueEntry(profile, wall)]
        releases = (Release(time=10.0, devices=6, pool_bytes=90 * GB),)
        assert select_next("gang", queue, 2, pool, releases) is None
        # Jobs without pool pressure are unaffected by the estimate.
        free = profile_of(2, 9.0, 0)
        assert estimated_wall_seconds(9.0, free, pool, penalty) == 9.0

    @given(remaining=st.floats(min_value=-1e-6, max_value=1e4,
                               allow_nan=False),
           reserved_gb=st.integers(min_value=0, max_value=150),
           pool_gb=st.integers(min_value=0, max_value=50),
           vmem_share=st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False))
    def test_wall_estimate_never_negative(self, remaining, reserved_gb,
                                          pool_gb, vmem_share):
        """Property: repeated preemption/restart accounting can leave
        float dust below zero in a job's remaining work; the wall
        estimate must clamp it, or SJF ordering and backfill windows
        would act on negative durations."""
        from repro.cluster.simulator import estimated_wall_seconds
        pool = MemoryPool(100 * GB, oversubscription=2.0)
        pool.reserve(reserved_gb * GB)
        profile = profile_of(2, 9.0, pool_gb * GB,
                             vmem_share=vmem_share)
        penalty = spill_penalty(design_point("MC-DLA(B)"))
        wall = estimated_wall_seconds(remaining, profile, pool,
                                      penalty)
        assert wall >= 0.0
        if remaining <= 0.0:
            assert wall == 0.0
        else:
            assert wall >= remaining

    def test_overrun_past_float_dust_raises(self):
        """The loop folds float dust below zero into zero, but a job
        run past its end by more than dust is an accounting slip."""
        from repro.cluster.simulator import _burn, _Running
        job = _Running(profile=profile_of(1, 10.0, 0, jid=7),
                       remaining=1.0, started=0.0)
        _burn(job, 1.0 + 1e-12)
        assert job.remaining == 0.0
        job.remaining = 1.0
        with pytest.raises(ValueError) as info:
            _burn(job, 1.5)
        message = str(info.value)
        assert "job 7" in message
        assert "-0.5" in message and "10.0" in message

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 0)


class TestClusterCli:
    def test_quick_smoke(self, capsys):
        from repro.cluster.cli import main
        assert main(["--quick"]) == 0
        out = capsys.readouterr().out
        assert "JCT" in out and "pool" in out

    def test_json_format(self, capsys):
        from repro.cluster.cli import main
        assert main(["--quick", "--format", "json",
                     "--design", "mc-hbm"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "cluster"
        assert payload["cluster"]["policy"] == "fifo"

    def test_bad_design(self, capsys):
        from repro.cluster.cli import main
        assert main(["--design", "tpu-pod"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_impossible_pool_reports_cleanly(self, capsys):
        from repro.cluster.cli import main
        assert main(["--quick", "--pool-gb", "1"]) == 2
        assert "pool" in capsys.readouterr().err


class TestClusterComparison:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments.cluster_comparison import (
            run_cluster_comparison)
        return run_cluster_comparison(policies=("fifo",), n_jobs=10,
                                      cache=None)

    def test_mc_beats_dc_on_tail_jct(self, study):
        """The acceptance claim: at equal pool capacity, at least one
        memory-centric design beats DC-DLA on JCT p95 (in fact all
        three do, on throughput too)."""
        dc = study.at("DC-DLA", "fifo")
        for design in ("MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)"):
            assert study.at(design, "fifo").jct_p95 < dc.jct_p95
            assert study.throughput_gain(design, "fifo") > 1.0

    def test_deterministic_json(self, study):
        """Two uncached runs produce byte-identical JSON."""
        from repro.experiments.cluster_comparison import (
            run_cluster_comparison)
        again = run_cluster_comparison(policies=("fifo",), n_jobs=10,
                                       cache=None)
        assert json.dumps(study.scalars(), sort_keys=True) == \
            json.dumps(again.scalars(), sort_keys=True)

    def test_format_renders(self, study):
        from repro.experiments.cluster_comparison import (
            format_cluster_comparison)
        text = format_cluster_comparison(study)
        assert "JCT p95" in text
        assert "DC-DLA" in text and "MC-DLA(B)" in text