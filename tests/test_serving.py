"""Inference-serving subsystem: traces, batcher, server, stats, CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import pricing
from repro.core.design_points import design_point
from repro.core.metrics import (ExecutionMode, ServingStats,
                                SimulationResult)
from repro.core.schedule import plan_inference
from repro.core.simulator import simulate
from repro.dnn.registry import build_network, decode_network
from repro.serving.batcher import BatchPolicy, form_batches, next_batch
from repro.serving.cli import main as serve_main
from repro.serving.cli import resolve_design, resolve_network
from repro.serving.server import (BatchLatencyModel, compute_stats,
                                  percentile, run_continuous, run_dynamic,
                                  simulate_serving)
from repro.serving.traces import (Request, mmpp_trace, poisson_trace,
                                  replayed_trace)
from repro.training.parallel import ParallelStrategy


class TestTraces:
    def test_poisson_deterministic_and_sorted(self):
        a = poisson_trace(100.0, 50, seed=7)
        b = poisson_trace(100.0, 50, seed=7)
        assert a == b
        assert all(x.arrival <= y.arrival for x, y in zip(a, a[1:]))
        assert [r.rid for r in a] == list(range(50))

    def test_poisson_seed_changes_trace(self):
        assert poisson_trace(100.0, 50, seed=1) \
            != poisson_trace(100.0, 50, seed=2)

    def test_poisson_rate_scales_horizon(self):
        slow = poisson_trace(10.0, 200, seed=3)[-1].arrival
        fast = poisson_trace(1000.0, 200, seed=3)[-1].arrival
        assert slow == pytest.approx(100.0 * fast)

    def test_mmpp_mean_rate_close_to_nominal(self):
        trace = mmpp_trace(200.0, 2000, seed=5)
        measured = len(trace) / trace[-1].arrival
        assert 0.5 * 200.0 < measured < 2.0 * 200.0

    def test_mmpp_is_burstier_than_poisson(self):
        """Squared CV of inter-arrivals: MMPP > 1 (Poisson ~ 1)."""
        def cv2(trace):
            gaps = [b.arrival - a.arrival
                    for a, b in zip(trace, trace[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean ** 2

        bursty = cv2(mmpp_trace(200.0, 4000, seed=11, burst_ratio=8.0))
        steady = cv2(poisson_trace(200.0, 4000, seed=11))
        assert bursty > steady * 1.5

    def test_replayed_trace_validates(self):
        trace = replayed_trace([0.0, 0.5, 0.5, 2.0])
        assert [r.arrival for r in trace] == [0.0, 0.5, 0.5, 2.0]
        with pytest.raises(ValueError):
            replayed_trace([1.0, 0.5])
        with pytest.raises(ValueError):
            replayed_trace([])

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(rid=0, arrival=-1.0)
        with pytest.raises(ValueError):
            Request(rid=0, arrival=0.0, decode_steps=0)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 10)
        with pytest.raises(ValueError):
            poisson_trace(10.0, 0)
        with pytest.raises(ValueError):
            mmpp_trace(10.0, 10, burst_ratio=0.5)
        with pytest.raises(ValueError):
            mmpp_trace(10.0, 10, dwell=0.0)


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait=-1.0)

    def test_name(self):
        assert BatchPolicy(8, 0.002).name == "b8w2ms"


class TestNextBatch:
    def test_full_batch_of_waiting_requests_dispatches_now(self):
        trace = replayed_trace([0.0, 0.0, 0.0, 0.0])
        count, dispatch = next_batch(trace, 0, 0.0, BatchPolicy(4, 1.0))
        assert (count, dispatch) == (4, 0.0)

    def test_partial_batch_waits_for_deadline(self):
        trace = replayed_trace([0.0, 5.0])
        count, dispatch = next_batch(trace, 0, 0.0,
                                     BatchPolicy(4, 0.010))
        assert (count, dispatch) == (1, 0.010)

    def test_late_arrival_fills_batch_before_deadline(self):
        trace = replayed_trace([0.0, 0.001, 0.002])
        count, dispatch = next_batch(trace, 0, 0.0,
                                     BatchPolicy(3, 0.010))
        assert count == 3
        assert dispatch == 0.002  # the filler's arrival, not deadline

    def test_busy_server_collects_backlog(self):
        trace = replayed_trace([0.0, 0.01, 0.02, 0.03])
        # Server frees long after every deadline: all four wait.
        count, dispatch = next_batch(trace, 0, 1.0, BatchPolicy(8, 0.001))
        assert (count, dispatch) == (4, 1.0)

    def test_zero_wait_dispatches_immediately(self):
        trace = replayed_trace([0.0, 0.5])
        count, dispatch = next_batch(trace, 0, 0.0, BatchPolicy(8, 0.0))
        assert (count, dispatch) == (1, 0.0)

    def test_form_batches_covers_trace_in_order(self):
        trace = poisson_trace(500.0, 100, seed=1)
        batches = form_batches(trace, BatchPolicy(4, 0.002))
        covered = []
        for start, count, _ in batches:
            covered.extend(range(start, start + count))
        assert covered == list(range(100))
        assert all(1 <= c <= 4 for _, c, _ in batches)


class TestRunDynamic:
    def test_no_request_lost_or_duplicated(self):
        trace = poisson_trace(300.0, 120, seed=2)
        ledger = run_dynamic(trace, BatchPolicy(8, 0.002),
                             lambda b: 0.005, n_servers=4)
        rids = sorted(c.request.rid for c in ledger.completed)
        assert rids == list(range(120))

    def test_latency_at_least_service(self):
        trace = poisson_trace(300.0, 60, seed=3)
        ledger = run_dynamic(trace, BatchPolicy(8, 0.002),
                             lambda b: 0.004, n_servers=2)
        for c in ledger.completed:
            assert c.latency >= c.service > 0
            assert c.queue_delay >= 0

    def test_single_server_is_serial(self):
        trace = poisson_trace(1000.0, 80, seed=4)
        ledger = run_dynamic(trace, BatchPolicy(4, 0.001),
                             lambda b: 0.003, n_servers=1)
        spans = sorted({(c.dispatched, c.finished)
                        for c in ledger.completed})
        for (_, fin), (start, _) in zip(spans, spans[1:]):
            assert start >= fin - 1e-12

    def test_needs_a_server(self):
        with pytest.raises(ValueError):
            run_dynamic(poisson_trace(1.0, 1), BatchPolicy(), lambda b: 1,
                        n_servers=0)

    def test_batch_size_respects_policy(self):
        trace = replayed_trace([0.0] * 20)
        ledger = run_dynamic(trace, BatchPolicy(6, 0.001),
                             lambda b: 0.001)
        assert ledger.n_batches == 4  # 6 + 6 + 6 + 2
        assert ledger.work_items == 20


class TestRunContinuous:
    def test_no_request_lost_and_steps_paid(self):
        trace = poisson_trace(50.0, 30, seed=5, decode_steps=4)
        ledger = run_continuous(trace, BatchPolicy(4, 0.0),
                                lambda b: 0.002)
        rids = sorted(c.request.rid for c in ledger.completed)
        assert rids == list(range(30))
        for c in ledger.completed:
            # At least decode_steps iterations of 2 ms each.
            assert c.service >= 4 * 0.002 - 1e-12

    def test_slots_capped_at_max_batch(self):
        trace = replayed_trace([0.0] * 10, decode_steps=3)
        seen = []
        ledger = run_continuous(trace, BatchPolicy(4, 0.0),
                                lambda b: seen.append(b) or 0.001)
        assert max(seen) <= 4
        assert ledger.work_items == 30  # 10 requests x 3 steps

    def test_prefill_charged_on_admission(self):
        trace = replayed_trace([0.0], decode_steps=2)
        ledger = run_continuous(trace, BatchPolicy(4, 0.0),
                                lambda b: 0.001,
                                prefill_fn=lambda b: 0.010)
        (done,) = ledger.completed
        assert done.finished == pytest.approx(0.010 + 2 * 0.001)


class TestStats:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 100) == 4.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 0)

    def test_compute_stats_fields(self):
        trace = poisson_trace(200.0, 100, seed=6)
        policy = BatchPolicy(8, 0.002)
        ledger = run_dynamic(trace, policy, lambda b: 0.004,
                             n_servers=2)
        stats = compute_stats(ledger, arrival="poisson", policy=policy,
                              batcher="dynamic", slo=0.05,
                              offered_rate=200.0, n_servers=2)
        assert stats.n_requests == 100
        assert 0.0 <= stats.utilization <= 1.0
        assert stats.goodput <= stats.throughput
        assert stats.latency_p50 <= stats.latency_p99
        assert stats.mean_batch_size >= 1.0
        assert stats.tail_amplification >= 1.0

    def test_serving_stats_round_trip_exact(self):
        trace = mmpp_trace(150.0, 64, seed=9)
        policy = BatchPolicy(4, 0.001)
        ledger = run_dynamic(trace, policy, lambda b: 0.003 + 1e-4 * b)
        stats = compute_stats(ledger, arrival="bursty", policy=policy,
                              batcher="dynamic", slo=0.02,
                              offered_rate=150.0, n_servers=1)
        clone = ServingStats.from_dict(
            json.loads(json.dumps(stats.to_dict())))
        assert clone == stats

    def test_serving_stats_validation(self):
        good = compute_stats(
            run_dynamic(poisson_trace(10.0, 4, seed=1), BatchPolicy(),
                        lambda b: 0.001),
            arrival="poisson", policy=BatchPolicy(), batcher="dynamic",
            slo=0.05, offered_rate=10.0, n_servers=1)
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(good, slo_attainment=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(good, utilization=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(good, latency_p50=good.latency_max * 2)


class TestInferenceMode:
    def test_forward_only_no_offload_ops(self):
        config = design_point("MC-DLA(B)")
        result = simulate(config, "AlexNet", 64,
                          mode=ExecutionMode.INFERENCE)
        assert result.mode is ExecutionMode.INFERENCE
        assert result.iteration_time > 0
        # Weight streaming fetches, no feature-map round trips.
        assert result.offload_bytes_per_device \
            == plan_inference(build_network("AlexNet"), config, 64,
                              ParallelStrategy.DATA) \
            .weight_stream_bytes_per_device

    def test_inference_faster_than_training(self):
        config = design_point("MC-DLA(B)")
        train = simulate(config, "GPT2", 16)
        infer = simulate(config, "GPT2", 16,
                         mode=ExecutionMode.INFERENCE)
        assert infer.iteration_time < train.iteration_time

    def test_oracle_streams_nothing(self):
        result = simulate(design_point("DC-DLA(O)"), "GPT2", 8,
                          mode=ExecutionMode.INFERENCE)
        assert result.offload_bytes_per_device == 0

    def test_tied_weights_streamed_once(self):
        net = build_network("GPT2")
        plan = plan_inference(net, design_point("MC-DLA(B)"), 8,
                              ParallelStrategy.DATA)
        assert plan.weight_stream_bytes_per_device == net.weight_bytes()
        assert "lm_head" not in plan.streamed_weights  # tied to embed

    def test_model_parallel_inference_shards_weights(self):
        config = design_point("MC-DLA(B)")
        net = build_network("VGG-E")
        data = plan_inference(net, config, 8, ParallelStrategy.DATA)
        model = plan_inference(net, config, 8, ParallelStrategy.MODEL)
        assert model.weight_stream_bytes_per_device \
            < data.weight_stream_bytes_per_device
        assert model.sync_bytes_per_iteration > 0

    def test_pipeline_inference_rejected(self):
        with pytest.raises(ValueError):
            simulate(design_point("MC-DLA(B)"), "GPT2", 8,
                     ParallelStrategy.PIPELINE,
                     mode=ExecutionMode.INFERENCE)

    def test_memory_centric_hides_streaming(self):
        """The serving-time Figure 13: MC tracks the oracle, DC lags."""
        lat = {d: simulate(design_point(d), "GPT2", 8,
                           mode=ExecutionMode.INFERENCE).iteration_time
               for d in ("DC-DLA", "MC-DLA(B)", "DC-DLA(O)")}
        assert lat["MC-DLA(B)"] < 1.1 * lat["DC-DLA(O)"]
        assert lat["DC-DLA"] > 1.5 * lat["MC-DLA(B)"]

    def test_result_round_trip_with_mode(self):
        result = simulate(design_point("DC-DLA"), "AlexNet", 32,
                          mode=ExecutionMode.INFERENCE)
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone == result


class TestDecodeNetworks:
    def test_decode_network_shapes(self):
        net = decode_network("GPT2")
        assert net.name == "GPT2-decode"
        full = build_network("GPT2")
        assert net.weight_bytes() == full.weight_bytes()
        # One token's forward work is tiny next to the full sequence.
        assert net.fwd_macs(1) < full.fwd_macs(1) / 100

    def test_decode_context_knob(self):
        short = decode_network("GPT2", context=64)
        longer = decode_network("GPT2", context=1024)
        assert short.fwd_macs(1) < longer.fwd_macs(1)

    def test_non_transformer_has_no_decode(self):
        with pytest.raises(KeyError):
            decode_network("AlexNet")


class TestBatchLatencySharing:
    """Every latency model of one design and network shares one memo."""

    def test_models_share_one_memo(self, monkeypatch):
        drives = []

        def counting_simulate(config, network, batch, *args, **kwargs):
            drives.append((config.name, network.name, batch))
            return simulate(config, network, batch, *args, **kwargs)

        monkeypatch.setattr("repro.serving.server.simulate",
                            counting_simulate)
        config = design_point("MC-DLA(B)")
        pricing.clear_caches()
        try:
            first = BatchLatencyModel(config, "GPT2")
            # An equal config object and the built network share it.
            second = BatchLatencyModel(dataclasses.replace(config),
                                       build_network("GPT2"))
            assert second.config is not config
            assert first(8) == second(8)
            assert second.result(16) is first.result(16)
            assert drives == [("MC-DLA(B)", "GPT2", 8),
                              ("MC-DLA(B)", "GPT2", 16)]
            # Another design or network prices on its own.
            BatchLatencyModel(design_point("DC-DLA"), "GPT2")(8)
            BatchLatencyModel(config, decode_network("GPT2"))(8)
            assert len(drives) == 4
            # Serving runs share it too: a repeated run simulates
            # nothing.
            run = simulate_serving(config, "GPT2", rate=200.0,
                                   n_requests=32)
            before = len(drives)
            assert simulate_serving(config, "GPT2", rate=200.0,
                                    n_requests=32) == run
            assert len(drives) == before
        finally:
            pricing.clear_caches()

    def test_clear_caches_drops_the_memo(self, monkeypatch):
        drives = []

        def counting_simulate(*args, **kwargs):
            drives.append(args[2])
            return simulate(*args, **kwargs)

        monkeypatch.setattr("repro.serving.server.simulate",
                            counting_simulate)
        config = design_point("MC-DLA(B)")
        pricing.clear_caches()
        try:
            model = BatchLatencyModel(config, "GPT2")
            latency = model(8)
            pricing.clear_caches()
            assert BatchLatencyModel(config, "GPT2")(8) == latency
            assert drives == [8, 8]
        finally:
            pricing.clear_caches()


class TestSimulateServing:
    def test_round_trip_exact(self):
        result = simulate_serving(design_point("MC-DLA(B)"), "GPT2",
                                  rate=200.0, n_requests=64)
        assert result.mode is ExecutionMode.SERVING
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_continuous_batcher(self):
        result = simulate_serving(design_point("MC-DLA(B)"), "GPT2",
                                  rate=20.0, n_requests=32,
                                  batcher="continuous", decode_steps=8)
        assert result.serving.batcher == "continuous"
        assert result.serving.n_servers == 1
        assert result.serving.latency_p50 > 0

    def test_unknown_batcher_and_arrival(self):
        config = design_point("MC-DLA(B)")
        with pytest.raises(ValueError):
            simulate_serving(config, "GPT2", batcher="magic",
                             n_requests=8)
        with pytest.raises(ValueError):
            simulate_serving(config, "GPT2", arrival="novel",
                             n_requests=8)

    def test_replay_arrivals(self):
        result = simulate_serving(
            design_point("MC-DLA(B)"), "GPT2", arrival="replay",
            replay=[0.0, 0.01, 0.02, 0.5], n_requests=4)
        assert result.serving.n_requests == 4

    def test_higher_load_higher_tail(self):
        config = design_point("DC-DLA")
        calm = simulate_serving(config, "GPT2", rate=100.0,
                                n_requests=128).serving
        slammed = simulate_serving(config, "GPT2", rate=2000.0,
                                   n_requests=128).serving
        assert slammed.latency_p99 > calm.latency_p99
        assert slammed.slo_attainment <= calm.slo_attainment


class TestServeCli:
    def test_aliases(self):
        assert resolve_design("mc-hbm") == "MC-DLA(B)"
        assert resolve_design("dc") == "DC-DLA"
        assert resolve_design("MC-DLA(L)") == "MC-DLA(L)"
        assert resolve_network("gpt2") == "GPT2"
        assert resolve_network("bert") == "BERT-Large"
        with pytest.raises(KeyError):
            resolve_design("tpu-pod")
        with pytest.raises(KeyError):
            resolve_network("llama")

    def test_acceptance_invocation(self, capsys):
        code = serve_main(["--design", "mc-hbm", "--network", "gpt2",
                           "--arrival-rate", "200", "--slo-ms", "50",
                           "--requests", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p50" in out and "p95" in out and "p99" in out
        assert "goodput" in out

    def test_json_output(self, capsys):
        code = serve_main(["--design", "oracle", "--network", "gpt2",
                           "--requests", "32", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "serving"
        assert payload["serving"]["n_requests"] == 32

    def test_bad_design_rejected(self, capsys):
        assert serve_main(["--design", "nope"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_continuous_requires_transformer(self, capsys):
        code = serve_main(["--design", "dc", "--network", "AlexNet",
                           "--batcher", "continuous"])
        assert code == 2
        assert "transformer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--requests", "0"], "request"),
        (["--arrival-rate", "0"], "arrival rate"),
        (["--max-batch", "0"], "max_batch"),
        (["--max-wait-ms", "-1"], "max_wait"),
        (["--decode-steps", "0", "--batcher", "continuous"],
         "decode_steps"),
    ], ids=["requests", "arrival-rate", "max-batch", "max-wait-ms",
            "decode-steps"])
    def test_bad_value_exits_2(self, capsys, argv, named):
        assert serve_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
