"""Cell-level consistency of the (columnar) simulator core.

Two properties, checked over the paper's full evaluation matrix (6
designs x 8 workloads x 2 strategies) and the inference, pipeline,
serving, cluster, and prefetch subsystems:

* memo purity -- a run from empty pricing memos and a rerun served
  from hot memos give *equal* results, every float compared with
  ``==`` (the memos of :mod:`repro.core.pricing` only ever skip work);
* trace equals simulate -- the timeline :func:`iteration_timeline`
  returns is the one :func:`simulate` priced: its makespan is the
  iteration time and its engine busy totals are the breakdown.

The full-result digest golden (``tests/test_result_digest.py``) pins
the values themselves.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.simulator import simulate_cluster
from repro.core import pricing
from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import ExecutionMode, SimulationResult
from repro.core.simulator import iteration_timeline, simulate
from repro.core.timeline import EngineKind
from repro.dnn.registry import BENCHMARK_NAMES
from repro.serving.server import simulate_serving
from repro.training.parallel import ParallelStrategy


def cold_and_warm(thunk) -> SimulationResult:
    """Run ``thunk`` from empty pricing memos, then again from hot
    ones; assert exact equality and return the result."""
    pricing.clear_caches()
    cold = thunk()
    warm = thunk()
    assert dataclasses.asdict(cold) == dataclasses.asdict(warm)
    return cold


def check_cell(config, network: str, batch: int,
               strategy: ParallelStrategy) -> None:
    """Memo purity plus trace-equals-simulate for one training cell."""
    result = cold_and_warm(
        lambda: simulate(config, network, batch, strategy))
    timeline = iteration_timeline(config, network, batch, strategy)
    assert timeline.makespan == result.iteration_time
    assert timeline.busy_time(EngineKind.COMPUTE) \
        == result.breakdown.compute
    assert timeline.busy_time(EngineKind.COMM) == result.breakdown.sync
    assert (timeline.busy_time(EngineKind.DMA_OUT)
            + timeline.busy_time(EngineKind.DMA_IN)) \
        == result.breakdown.vmem


class TestEvaluationMatrix:
    """The full 6-design x 8-workload x 2-strategy paper grid."""

    @pytest.mark.parametrize("design", DESIGN_ORDER)
    @pytest.mark.parametrize("network", BENCHMARK_NAMES)
    def test_training_grid_cell(self, design, network):
        config = design_point(design)
        for strategy in (ParallelStrategy.DATA, ParallelStrategy.MODEL):
            check_cell(config, network, 512, strategy)

    @pytest.mark.parametrize("design", ("DC-DLA", "MC-DLA(B)"))
    def test_inference_cells(self, design):
        config = design_point(design)
        result = cold_and_warm(
            lambda: simulate(config, "ResNet", 64, ParallelStrategy.DATA,
                             ExecutionMode.INFERENCE))
        assert result.mode is ExecutionMode.INFERENCE


class TestSubsystems:
    def test_pipeline_mode(self):
        config = dataclasses.replace(design_point("MC-DLA(B)"),
                                     pipeline_stages=4)
        check_cell(config, "VGG-E", 256, ParallelStrategy.PIPELINE)

    def test_pipeline_gpipe_schedule(self):
        config = dataclasses.replace(design_point("HC-DLA"),
                                     pipeline_stages=4,
                                     pipeline_schedule="gpipe")
        check_cell(config, "BERT-Large", 256, ParallelStrategy.PIPELINE)

    def test_serving_mode(self):
        config = design_point("MC-DLA(B)")
        cold_and_warm(lambda: simulate_serving(
            config, "ResNet", rate=200.0, n_requests=64, seed=7,
            max_batch=16))

    def test_cluster_mode(self):
        config = design_point("MC-DLA(B)")
        cold_and_warm(lambda: simulate_cluster(
            config, policy="fifo", n_jobs=8, seed=7))

    @pytest.mark.parametrize("policy", ("next-op", "stride",
                                        "cost-model", "clairvoyant"))
    def test_prefetch_policies(self, policy):
        config = dataclasses.replace(design_point("MC-DLA(L)"),
                                     prefetch_policy=policy)
        check_cell(config, "GoogLeNet", 128, ParallelStrategy.DATA)


class TestEscapeHatch:
    """Memoization has no off switch; design builds are shared."""

    def test_vectorized_mode_shares_design_builds(self):
        pricing.clear_caches()
        a = design_point("DC-DLA")
        b = design_point("DC-DLA")
        assert a is b
        # Keyword overrides always rebuild (never memoized).
        c = design_point("DC-DLA", n_devices=4)
        assert c is not a and c.n_devices == 4
        pricing.clear_caches()
