"""Cell-level consistency of the (columnar) simulator core.

Three properties, checked over the paper's full evaluation matrix (6
designs x 8 workloads x 2 strategies) and the inference, pipeline,
serving, cluster, prefetch and fault subsystems:

* memo purity -- a run from empty pricing memos and a rerun served
  from hot memos give *equal* results, every float compared with
  ``==`` (the memos of :mod:`repro.core.pricing` only ever skip work);
* structure sharing -- a training or pipeline op table priced from an
  op structure another design point emitted (an inference table: one
  another batch emitted) equals, column by column and bit for bit, the
  table emitted with the memos cleared;
* trace equals simulate -- the timeline :func:`iteration_timeline`
  returns is the one :func:`simulate` priced: its makespan is the
  iteration time and its engine busy totals are the breakdown.

The full-result digest golden (``tests/test_result_digest.py``) pins
the values themselves.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accelerator.device import DeviceSpec
from repro.accelerator.pe_array import PeArraySpec
from repro.cluster.simulator import simulate_cluster
from repro.collectives.ring_algorithm import Primitive
from repro.core import pricing
from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import ExecutionMode, SimulationResult
from repro.core.optable import OpTable
from repro.core.schedule import (_emit_inference, _inference_seconds,
                                 _iteration_seconds, build_inference_ops,
                                 build_iteration_ops, contention_fraction,
                                 inference_pricer, iteration_pricer,
                                 plan_inference, plan_inference_prefetch,
                                 plan_iteration, plan_training_prefetch,
                                 vmem_pricer)
from repro.core.simulator import iteration_timeline, simulate
from repro.core.system import CollectiveModel
from repro.core.timeline import EngineKind
from repro.dnn.layers import Layer, LayerKind
from repro.dnn.registry import (BENCHMARK_NAMES, benchmark_info,
                                build_network)
from repro.dnn.shapes import Gemm, fc_gemm
from repro.experiments.ablations import _recompute_plan
from repro.experiments.fig14_batch_sensitivity import \
    BATCH_SIZES as FIG14_BATCHES
from repro.faults.lowering import degraded_config, healthy_config
from repro.pipeline.lowering import (_pipeline_seconds, pipeline_pricer,
                                    plan_pipeline)
from repro.pipeline.schedules import SCHEDULE_ORDER, build_schedule
from repro.scenarios.lowering import lower_scenario, scenario_design_point
from repro.scenarios.paper import paper_suite
from repro.scenarios.runner import run_suite
from repro.serving.server import simulate_serving
from repro.telemetry.registry import disable_metrics, enable_metrics
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER, prefetch_policy


def cold_and_warm(thunk) -> SimulationResult:
    """Run ``thunk`` from empty pricing memos, then again from hot
    ones; assert exact equality and return the result."""
    pricing.clear_caches()
    cold = thunk()
    warm = thunk()
    assert dataclasses.asdict(cold) == dataclasses.asdict(warm)
    return cold


def assert_same_table(actual: OpTable, expected: OpTable) -> None:
    """Column-by-column equality; durations compared bit for bit."""
    assert actual.codes == expected.codes
    assert [d.hex() for d in actual.durations] \
        == [d.hex() for d in expected.durations]
    assert actual.deps == expected.deps
    assert actual.tags == expected.tags
    assert actual.nbytes == expected.nbytes
    assert actual.channels == expected.channels
    assert actual.slot_prev == expected.slot_prev


def check_cell(config, network: str, batch: int,
               strategy: ParallelStrategy, donors=()) -> None:
    """Memo purity, structure sharing and trace-equals-simulate for one
    training or pipeline cell.

    The cell's op table is emitted with the memos cleared, then again
    after every ``donors`` config ran the same workload, so it is
    priced from a structure a donor emitted wherever they share one.
    """
    def table() -> OpTable:
        return iteration_timeline(config, network, batch, strategy).table

    pricing.clear_caches()
    cold_table = table()
    pricing.clear_caches()
    for donor in donors:
        simulate(donor, network, batch, strategy)
    assert_same_table(table(), cold_table)

    result = cold_and_warm(
        lambda: simulate(config, network, batch, strategy))
    timeline = iteration_timeline(config, network, batch, strategy)
    assert_same_table(timeline.table, cold_table)
    assert timeline.makespan == result.iteration_time
    assert timeline.busy_time(EngineKind.COMPUTE) \
        == result.breakdown.compute
    assert timeline.busy_time(EngineKind.COMM) == result.breakdown.sync
    assert (timeline.busy_time(EngineKind.DMA_OUT)
            + timeline.busy_time(EngineKind.DMA_IN)) \
        == result.breakdown.vmem


def other_designs(design: str, **overrides) -> list:
    """Every other paper design point, with the same overrides."""
    return [dataclasses.replace(design_point(other), **overrides)
            for other in DESIGN_ORDER if other != design]


class TestEvaluationMatrix:
    """The full 6-design x 8-workload x 2-strategy paper grid."""

    @pytest.mark.parametrize("design", DESIGN_ORDER)
    @pytest.mark.parametrize("network", BENCHMARK_NAMES)
    def test_training_grid_cell(self, design, network):
        config = design_point(design)
        for strategy in (ParallelStrategy.DATA, ParallelStrategy.MODEL):
            check_cell(config, network, 512, strategy,
                       donors=other_designs(design))

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

    @pytest.mark.parametrize("policy", ("on-demand", "next-op", "stride",
                                        "cost-model", "clairvoyant"))
    def test_prefetch_policies(self, policy):
        # Stride emits waste fetches; cost-model gates depend on each
        # design's DMA prices, so its structures split by design.
        config = dataclasses.replace(design_point("MC-DLA(L)"),
                                     prefetch_policy=policy)
        check_cell(config, "GoogLeNet", 128, ParallelStrategy.DATA,
                   donors=other_designs("MC-DLA(L)",
                                        prefetch_policy=policy))

    @pytest.mark.parametrize("design", ("DC-DLA", "MC-DLA(B)"))
    @pytest.mark.parametrize("fault", ("flaky-link", "storm",
                                       "node-loss"))
    def test_fault_models(self, design, fault):
        config = dataclasses.replace(design_point(design),
                                     fault_model=fault)
        donors = [design_point(design)] + other_designs(
            design, fault_model=fault)
        check_cell(config, "VGG-E", 64, ParallelStrategy.DATA,
                   donors=donors)


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


def _grid_cells():
    for design in DESIGN_ORDER:
        for network in BENCHMARK_NAMES:
            for strategy in (ParallelStrategy.DATA,
                             ParallelStrategy.MODEL):
                yield design_point(design), network, strategy


class TestStructureSharing:
    """Design points that share an op structure emit it once."""

    def test_grid_emits_each_structure_once(self, monkeypatch):
        adds = [0]
        emitted = []
        add = OpTable.add
        build = build_iteration_ops

        def counting_add(self, *args, **kwargs):
            adds[0] += 1
            return add(self, *args, **kwargs)

        def counting_build(*args, **kwargs):
            table = build(*args, **kwargs)
            emitted.append(len(table))
            return table

        monkeypatch.setattr(OpTable, "add", counting_add)
        monkeypatch.setattr("repro.core.simulator.build_iteration_ops",
                            counting_build)
        pricing.clear_caches()
        registry = enable_metrics(fresh=True)
        try:
            for config, network, strategy in _grid_cells():
                simulate(config, network, 512, strategy)
            counters = {
                (entry["name"], entry["labels"].get("memo")):
                    entry["value"]
                for entry in registry.snapshot()["counters"]}
        finally:
            disable_metrics()
            pricing.clear_caches()
        # 32 distinct structures (DC-DLA(O) never migrates; the other
        # five designs share one per workload and strategy) hold 8,938
        # ops; emitting per design point added 30,914.
        assert adds[0] == 8938
        assert len(emitted) == 96 and sum(emitted) == 30914
        for memo in ("op-structure", "iteration-plan"):
            assert counters[("repro_pricing_memo_misses_total",
                             memo)] == 32
            assert counters[("repro_pricing_memo_hits_total",
                             memo)] == 64

    @pytest.mark.parametrize("strategy", (ParallelStrategy.DATA,
                                          ParallelStrategy.MODEL),
                             ids=["data", "model"])
    def test_designs_share_fetch_sites(self, strategy):
        """The five migrating designs of one grid cell plan their
        prefetches over the very same fetch-site objects, kept on the
        shared plan, and each schedule equals one planned from cleared
        memos."""
        net = build_network("GoogLeNet")
        migrating = [config for config in map(design_point, DESIGN_ORDER)
                     if config.virtualizes]
        assert len(migrating) == 5
        pricing.clear_caches()
        schedules = [
            plan_training_prefetch(
                plan_iteration(net, config, 512, strategy), config)
            for config in migrating]
        sites = [tuple(issue.site for issue in schedule.issues)
                 for schedule in schedules]
        assert sites[0]
        for other in sites[1:]:
            assert len(other) == len(sites[0])
            assert all(a is b for a, b in zip(other, sites[0]))
        for config, schedule in zip(migrating, schedules):
            pricing.clear_caches()
            assert plan_training_prefetch(
                plan_iteration(net, config, 512, strategy),
                config) == schedule
        pricing.clear_caches()

    @pytest.mark.parametrize("policy", ("on-demand", "cost-model"))
    def test_only_cost_model_plans_per_design(self, monkeypatch, policy):
        """On one shared plan, a price-blind policy's schedule is
        planned once and shared by all five migrating designs;
        ``cost-model`` plans each design from its own prices, and its
        gates differ between designs on this grid cell."""
        calls = [0]
        policy_type = type(prefetch_policy(policy))
        original = policy_type.plan

        def counting_plan(self, ctx):
            calls[0] += 1
            return original(self, ctx)

        net = build_network("GoogLeNet")
        migrating = [
            dataclasses.replace(config, prefetch_policy=policy)
            for config in map(design_point, DESIGN_ORDER)
            if config.virtualizes]
        pricing.clear_caches()
        monkeypatch.setattr(policy_type, "plan", counting_plan)
        schedules = [
            plan_training_prefetch(
                plan_iteration(net, config, 512, ParallelStrategy.DATA),
                config)
            for config in migrating]
        gates = {tuple(issue.gate_step for issue in schedule.issues)
                 for schedule in schedules}
        if policy == "cost-model":
            assert calls[0] == 5 and len(gates) == 4
        else:
            assert calls[0] == 1
            assert all(s is schedules[0] for s in schedules)
        for config, schedule in zip(migrating, schedules):
            pricing.clear_caches()
            assert plan_training_prefetch(
                plan_iteration(net, config, 512, ParallelStrategy.DATA),
                config) == schedule
        pricing.clear_caches()

    def test_grid_prices_each_distinct_thing_once(self, monkeypatch):
        """One grid pass plans each plan's gates once, prices each
        distinct collective and DMA key once per design and op
        structure, and resolves and times each distinct GEMM shape
        once per partition and timing build."""
        calls = dict.fromkeys(("plan", "gemm", "gemm_time", "op_time"), 0)

        def count(owner, name, key):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        for network in BENCHMARK_NAMES:
            build_network(network)   # built (and cached) uncounted
        for name in PREFETCH_POLICY_ORDER:
            count(type(prefetch_policy(name)), "plan", "plan")
        count(Gemm, "__post_init__", "gemm")
        count(PeArraySpec, "gemm_time", "gemm_time")
        count(DeviceSpec, "op_time", "op_time")
        pricing.clear_caches()
        registry = enable_metrics(fresh=True)
        try:
            for config, network, strategy in _grid_cells():
                simulate(config, network, 512, strategy)
            counters = {
                (entry["name"], entry["labels"].get("memo")):
                    entry["value"]
                for entry in registry.snapshot()["counters"]}
        finally:
            disable_metrics()
            pricing.clear_caches()

        def lookups(memo):
            return (counters[("repro_pricing_memo_hits_total", memo)]
                    + counters[("repro_pricing_memo_misses_total", memo)])

        # Planning and pricing per design point, and resolving and
        # timing per layer, would make 96 gate plans, 11,616 collective
        # and 12,180 DMA prices, 4,872 GEMMs, and time 4,176 GEMMs and
        # 3,640 kernels.
        assert calls == {"plan": 32, "gemm": 630, "gemm_time": 540,
                         "op_time": 486}
        assert counters[("repro_pricing_memo_misses_total",
                         "gate-plan")] == 32
        assert counters[("repro_pricing_memo_hits_total",
                         "gate-plan")] == 64
        # 500 DMA prices fill the priced tables and 812 are the fetch
        # prices of the 32 gate plans.  Every collective price fills a
        # priced table: under on-demand no plan-seconds walk prices
        # the collectives again (2,160 when one did).
        assert lookups("dma") == 1312
        assert lookups("collective") == 1080

    def test_batch_sweep_takes_one_step_per_virtualization(self):
        """The migration rule reads no batch: fig14's batch sweep of one
        network on every design and strategy builds the ``migration``
        memo once per virtualization setting (DC-DLA(O) keeps every
        tensor resident) and shares it across the 16 iteration plans."""
        pricing.clear_caches()
        net = build_network("VGG-E")
        registry = enable_metrics(fresh=True)
        try:
            plans = [plan_iteration(net, config, batch, strategy)
                     for batch in FIG14_BATCHES
                     for config in map(design_point, DESIGN_ORDER)
                     for strategy in (ParallelStrategy.DATA,
                                      ParallelStrategy.MODEL)]
            counters = {
                (entry["name"], entry["labels"].get("memo")):
                    entry["value"]
                for entry in registry.snapshot()["counters"]}
        finally:
            disable_metrics()
        try:
            assert counters[("repro_pricing_memo_misses_total",
                             "iteration-plan")] == 16
            assert counters[("repro_pricing_memo_misses_total",
                             "migration")] == 2
            assert counters[("repro_pricing_memo_hits_total",
                             "migration")] == 14
            # Every plan holds one of the two memoized steps.
            assert {id(plan.step) for plan in plans} == {
                id(pricing.cached_migration(net, virtualize))
                for virtualize in (False, True)}
        finally:
            pricing.clear_caches()


class TestCollectivePrices:
    """Design points whose collective models are equal values share
    one price memo."""

    @staticmethod
    def _timed_keys(monkeypatch) -> list[tuple]:
        """Every ``(model, primitive, nbytes)`` ``CollectiveModel.time``
        is called with, in call order."""
        calls = []
        time = CollectiveModel.time

        def recording(self, primitive, nbytes):
            calls.append((self, primitive, nbytes))
            return time(self, primitive, nbytes)

        monkeypatch.setattr(CollectiveModel, "time", recording)
        return calls

    def test_equal_models_share_one_memo(self, monkeypatch):
        calls = self._timed_keys(monkeypatch)
        pricing.clear_caches()
        dc = design_point("DC-DLA").collectives
        dc_o = design_point("DC-DLA(O)").collectives
        assert dc == dc_o and dc is not dc_o
        seconds = pricing.collective_pricer(dc)(Primitive.ALL_REDUCE,
                                                1 << 24)
        assert pricing.collective_pricer(dc_o)(
            Primitive.ALL_REDUCE, 1 << 24) == seconds
        assert len(calls) == 1
        # clear_caches empties the shared memo and detaches it from
        # every model object that held it.
        pricing.clear_caches()
        assert pricing.collective_pricer(dc_o)(
            Primitive.ALL_REDUCE, 1 << 24) == seconds
        assert len(calls) == 2
        pricing.clear_caches()

    def test_grid_times_each_distinct_collective_once(self, monkeypatch):
        """Six design points build four distinct collective models; a
        grid pass times each (model, primitive, bytes) key once (858
        times for 572 keys when each model object had its own memo)."""
        calls = self._timed_keys(monkeypatch)
        pricing.clear_caches()
        try:
            for config, network, strategy in _grid_cells():
                simulate(config, network, 512, strategy)
        finally:
            pricing.clear_caches()
        assert len({model for model, _, _ in calls}) == 4
        assert len(calls) == len(set(calls)) == 572


def _suite_pipeline_cells():
    """The claims suite's pipeline cells, as (config, network, batch)."""
    for scenario in paper_suite().scenarios:
        point = lower_scenario(scenario)
        if point.strategy is ParallelStrategy.PIPELINE:
            yield (point.build_config(scenario_design_point),
                   point.network, point.batch)


class TestPipelineSharing:
    """Pipeline plans and op structures are shared across designs the
    way training's are, and priced per design."""

    @pytest.mark.parametrize("schedule", SCHEDULE_ORDER)
    def test_schedules_share_across_designs(self, schedule):
        config = dataclasses.replace(design_point("MC-DLA(B)"),
                                     pipeline_schedule=schedule)
        check_cell(config, "GPT2", 64, ParallelStrategy.PIPELINE,
                   donors=other_designs("MC-DLA(B)",
                                        pipeline_schedule=schedule))

    @pytest.mark.parametrize("policy", ("stride", "cost-model"))
    def test_prefetch_policies(self, policy):
        # A two-deep stash makes stride evict and re-fetch (waste
        # DMAs); cost-model gates depend on each design's DMA prices,
        # so its structures split by design.
        knobs = dict(pipeline_schedule="gpipe", prefetch_policy=policy,
                     prefetch_stash=2)
        config = dataclasses.replace(design_point("MC-DLA(L)"), **knobs)
        check_cell(config, "GPT2", 64, ParallelStrategy.PIPELINE,
                   donors=other_designs("MC-DLA(L)", **knobs))
        table = iteration_timeline(config, "GPT2", 64,
                                   ParallelStrategy.PIPELINE).table
        wasted = sum(tag.startswith("waste:") for tag in table.tags)
        assert (wasted > 0) == (policy == "stride")

    @pytest.mark.parametrize("design", ("DC-DLA", "MC-DLA(B)"))
    @pytest.mark.parametrize("fault", ("straggler", "degraded-link"))
    def test_fault_models(self, design, fault):
        config = dataclasses.replace(design_point(design),
                                     fault_model=fault,
                                     pipeline_schedule="zb-auto")
        donors = [dataclasses.replace(design_point(design),
                                      pipeline_schedule="zb-auto")]
        donors += other_designs(design, fault_model=fault,
                                pipeline_schedule="zb-auto")
        check_cell(config, "GPT2", 64, ParallelStrategy.PIPELINE,
                   donors=donors)
        # A straggler slows the device, so it plans on its own; a
        # degraded link re-prices transfers on the healthy plan.
        net = build_network("GPT2")
        degraded = plan_pipeline(net, degraded_config(config), 64)
        healthy = plan_pipeline(net, healthy_config(config), 64)
        assert (degraded is healthy) == (fault == "degraded-link")

    def test_schedule_aliases_share_a_plan(self):
        net = build_network("GPT2")
        base = design_point("MC-DLA(B)")
        pricing.clear_caches()
        plan = plan_pipeline(
            net, dataclasses.replace(base, pipeline_schedule="zb-h1"), 64)
        for alias in ("zb", "zero-bubble"):
            assert plan_pipeline(
                net, dataclasses.replace(base, pipeline_schedule=alias),
                64) is plan

    def test_suite_emits_each_structure_once(self, monkeypatch):
        adds = [0]
        searches = [0]
        add = OpTable.add
        search = build_schedule

        def counting_add(self, *args, **kwargs):
            adds[0] += 1
            return add(self, *args, **kwargs)

        def counting_search(*args, **kwargs):
            searches[0] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(OpTable, "add", counting_add)
        monkeypatch.setattr("repro.pipeline.lowering.build_schedule",
                            counting_search)
        cells = list(_suite_pipeline_cells())
        pricing.clear_caches()
        registry = enable_metrics(fresh=True)
        try:
            for config, network, batch in cells:
                simulate(config, network, batch,
                         ParallelStrategy.PIPELINE)
            counters = {
                (entry["name"], entry["labels"].get("memo")):
                    entry["value"]
                for entry in registry.snapshot()["counters"]}
        finally:
            disable_metrics()
            pricing.clear_caches()
        # 52 cells, 17 plans: GPT2 and BERT-Large under four zero-bubble
        # suite schedules, split by whether the design virtualizes, plus
        # GPT2 fill-drain (its two designs both virtualize).  Emitting
        # per cell added 24,028 ops and searched 52 schedules.  Stages
        # are timed from 4 layer-time tables (two networks, with and
        # without the B/W split), over one partition per network.
        assert len(cells) == 52
        assert adds[0] == 7252
        assert searches[0] == 17
        for memo, misses, hits in (("pipeline-plan", 17, 35),
                                   ("op-structure", 17, 35),
                                   ("pipeline-partition", 4, 13),
                                   ("layer-times", 4, 13),
                                   ("partition", 2, 2)):
            assert counters[("repro_pricing_memo_misses_total",
                             memo)] == misses
            assert counters[("repro_pricing_memo_hits_total",
                             memo)] == hits


#: The three plan-seconds walks and the pricers that hand them to
#: ``vmem_pricer``, as (patch target, pricer, walk, plan builder).
_PLAN_SECONDS = (
    ("repro.core.schedule._iteration_seconds", iteration_pricer,
     _iteration_seconds,
     lambda net, config: plan_iteration(net, config, 64,
                                        ParallelStrategy.DATA)),
    ("repro.core.schedule._inference_seconds", inference_pricer,
     _inference_seconds,
     lambda net, config: plan_inference(net, config, 64,
                                        ParallelStrategy.MODEL)),
    ("repro.pipeline.lowering._pipeline_seconds", pipeline_pricer,
     _pipeline_seconds,
     lambda net, config: plan_pipeline(
         net, dataclasses.replace(config, pipeline_stages=4), 64)),
)


class TestInferenceSharing:
    """Every batch and design point of one network shape prices its
    forward-only cells from one op structure, and only policies that
    price contention walk a plan's seconds."""

    def test_suite_simulates_each_inference_cell_once(self, monkeypatch):
        drives = []
        walks = []
        emitted = [0]
        gate_plans = [0]
        planning = [False]

        def counting_plan(net, config, batch, strategy):
            drives.append((net, config, batch, strategy))
            return plan_inference(net, config, batch, strategy)

        def counting_prefetch(*args, **kwargs):
            planning[0] = True
            try:
                return plan_inference_prefetch(*args, **kwargs)
            finally:
                planning[0] = False

        def counting_emit(*args, **kwargs):
            emitted[0] += 1
            return _emit_inference(*args, **kwargs)

        def count_walks(target, walk):
            def counting(plan, config):
                walks.append(config.prefetch_policy)
                return walk(plan, config)
            monkeypatch.setattr(target, counting)

        for name in PREFETCH_POLICY_ORDER:
            policy_type = type(prefetch_policy(name))

            def counting_policy(self, ctx, original=policy_type.plan):
                gate_plans[0] += planning[0]
                return original(self, ctx)

            monkeypatch.setattr(policy_type, "plan", counting_policy)
        monkeypatch.setattr("repro.core.simulator.plan_inference",
                            counting_plan)
        monkeypatch.setattr("repro.core.simulator.plan_inference_prefetch",
                            counting_prefetch)
        monkeypatch.setattr("repro.core.schedule._emit_inference",
                            counting_emit)
        for target, _, walk, _ in _PLAN_SECONDS:
            count_walks(target, walk)
        pricing.clear_caches()
        try:
            assert run_suite(paper_suite()).ok
        finally:
            pricing.clear_caches()
        # Planning, gate-planning and emitting per drive made 51 drives,
        # 51 gate plans and 51 structures, and every drive walked its
        # plan's seconds (253 walks, 250 of them under on-demand, which
        # reads none).
        assert len(drives) == len(set(drives)) == 43
        assert emitted[0] == 2
        assert gate_plans[0] == 2
        assert sorted(walks) == ["clairvoyant", "cost-model", "stride"]

    @pytest.mark.parametrize("policy", PREFETCH_POLICY_ORDER)
    @pytest.mark.parametrize("strategy", (ParallelStrategy.DATA,
                                          ParallelStrategy.MODEL),
                             ids=["data", "model"])
    @pytest.mark.parametrize("batches", ((64, 1, 8), (1, 8, 64)),
                             ids=["b64-first", "b64-last"])
    def test_batches_share_a_structure(self, monkeypatch, policy,
                                       strategy, batches):
        """A cell priced from a structure another batch emitted equals
        one emitted from cleared memos, table and result."""
        # Stride on DC-DLA issues waste fetches for GPT2.
        config = dataclasses.replace(design_point("DC-DLA"),
                                     prefetch_policy=policy)
        net = build_network("GPT2")

        def cell(batch):
            plan = plan_inference(net, config, batch, strategy)
            return (build_inference_ops(plan, config),
                    simulate(config, net, batch, strategy,
                             ExecutionMode.INFERENCE).to_dict())

        fresh = {}
        for batch in batches:
            pricing.clear_caches()
            fresh[batch] = cell(batch)
        emitted = [0]

        def counting_emit(*args, **kwargs):
            emitted[0] += 1
            return _emit_inference(*args, **kwargs)

        monkeypatch.setattr("repro.core.schedule._emit_inference",
                            counting_emit)
        pricing.clear_caches()
        try:
            for batch in batches:
                table, result = cell(batch)
                assert_same_table(table, fresh[batch][0])
                assert [op.engine for op in table.ops] \
                    == [op.engine for op in fresh[batch][0].ops]
                assert result == fresh[batch][1]
        finally:
            pricing.clear_caches()
        assert any(tag.startswith("waste:") for tag in table.tags) \
            == (policy == "stride")
        # The model-parallel all-gathers carry batch-sized bytes, so
        # only data-parallel batches share a structure.
        if strategy is ParallelStrategy.DATA \
                and not prefetch_policy(policy).reads_costs:
            assert emitted[0] == 1
        elif strategy is ParallelStrategy.MODEL:
            assert emitted[0] == 3

    def test_shape_memo_is_kept_per_shape(self):
        net = build_network("GPT2")
        config = design_point("MC-DLA(B)")
        pricing.clear_caches()
        data = plan_inference(net, config, 8, ParallelStrategy.DATA)
        build_inference_ops(data, config)
        assert any(key[0] == "op-structure" for key in data._memo)
        # Another batch and another design point with the same device
        # count and virtualization setting share the memo.
        other = dataclasses.replace(design_point("DC-DLA"),
                                    prefetch_policy="next-op")
        assert plan_inference(net, other, 64,
                              ParallelStrategy.DATA)._memo is data._memo
        assert plan_inference(net, config, 64, ParallelStrategy.DATA) \
            .streamed_weights is data.streamed_weights
        # Model-parallel batches, the oracle (which streams nothing) and
        # another device count each get their own.
        model = plan_inference(net, config, 8, ParallelStrategy.MODEL)
        for plan in (
                model,
                plan_inference(net, config, 64, ParallelStrategy.MODEL),
                plan_inference(net, design_point("DC-DLA(O)"), 8,
                               ParallelStrategy.DATA),
                plan_inference(net, dataclasses.replace(config,
                                                        n_devices=4),
                               8, ParallelStrategy.DATA)):
            assert plan._memo is not data._memo
        assert plan_inference(net, config, 8, ParallelStrategy.MODEL) \
            ._memo is model._memo
        # A replaced plan starts an empty memo; clear_caches drops the
        # shared one.
        assert dataclasses.replace(data, batch=16)._memo == {}
        pricing.clear_caches()
        assert plan_inference(net, config, 8,
                              ParallelStrategy.DATA)._memo is not data._memo
        pricing.clear_caches()

    def test_on_demand_never_walks_plan_seconds(self, monkeypatch):
        config = design_point("MC-DLA(B)")
        assert config.prefetch_policy == "on-demand"

        def unread():
            raise AssertionError("on-demand read the plan seconds")

        pricer = vmem_pricer(config, unread)
        for target, make_pricer, _, build_plan in _PLAN_SECONDS:
            monkeypatch.setattr(target, lambda plan, config: unread())
            for nbytes in (1, 4096, 1 << 30):
                assert pricer(nbytes) \
                    == make_pricer(build_plan(build_network("GPT2"),
                                              config), config)(nbytes) \
                    == config.vmem.transfer_time(nbytes, 1.0)

    @pytest.mark.parametrize("policy", [p for p in PREFETCH_POLICY_ORDER
                                        if p != "on-demand"])
    def test_other_policies_price_the_plan_fraction(self, policy):
        config = dataclasses.replace(design_point("MC-DLA(B)"),
                                     prefetch_policy=policy)
        fractions = []
        for _, make_pricer, walk, build_plan in _PLAN_SECONDS:
            plan = build_plan(build_network("VGG-E"), config)
            fraction = contention_fraction(*walk(plan, config))
            fractions.append(fraction)
            pricer = make_pricer(plan, config)
            for nbytes in (1, 4096, 1 << 30):
                assert pricer(nbytes) \
                    == config.vmem.transfer_time(nbytes, fraction)
        # The data-parallel training fraction is strictly partial.
        assert 0.0 < fractions[0] < 1.0


class TestStructureIsolation:
    """Structures never cross plans."""

    @pytest.mark.parametrize("first", (True, False),
                             ids=("on-first", "off-first"))
    def test_recompute_ablation_plans_keep_their_own(self, first):
        from repro.core.design_points import dc_dla
        from repro.dnn.registry import build_network

        config = dc_dla()
        net = build_network("VGG-E")
        pricing.clear_caches()
        expected = {True: (173, 26), False: (199, 0)}
        for recompute in (first, not first):
            ops = build_iteration_ops(
                _recompute_plan(net, 512, config, recompute), config)
            recomputes = sum(tag.startswith("recompute:")
                             for tag in ops.tags)
            assert (len(ops), recomputes) == expected[recompute]

    def test_add_layer_after_simulate_gives_fresh_plan(self):
        config = design_point("MC-DLA(B)")
        net = benchmark_info("AlexNet").builder()
        pricing.clear_caches()
        before = simulate(config, net, 64)
        plan = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        assert plan_iteration(net, config, 64,
                              ParallelStrategy.DATA) is plan
        old_ops = build_iteration_ops(plan, config)

        last = net.layer_names[-1]
        net.add_layer(Layer(name="extra_fc", kind=LayerKind.FC,
                            out_elems=10, weight_elems=10 * 10,
                            gemms=(fc_gemm(10, 10),)), inputs=[last])
        after = simulate(config, net, 64)
        fresh = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        assert fresh is not plan
        new_ops = build_iteration_ops(fresh, config)
        # The new plan holds structures of its own, none of the old.
        assert fresh._memo
        assert not ({id(v) for v in fresh._memo.values()}
                    & {id(v) for v in plan._memo.values()})
        assert "fwd:extra_fc" in new_ops.tags
        assert "fwd:extra_fc" not in old_ops.tags
        assert len(new_ops) > len(old_ops)
        assert after.iteration_time > before.iteration_time
