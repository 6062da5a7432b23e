"""Full-workload matrix invariants: every Table III benchmark, through
the whole stack, on the key design points.

Parametrized over all eight networks so that every workload's distinct
graph shape (inception branching, residual shortcuts, grouped convs,
long recurrent chains) exercises the planner, scheduler, and timeline.
"""

import pytest

from repro.core.design_points import dc_dla, dc_dla_oracle, mc_dla_bw
from repro.core.optable import schedule_ops
from repro.core.schedule import build_iteration_ops, plan_iteration
from repro.core.timeline import EngineKind
from repro.dnn.layers import LayerKind
from repro.dnn.registry import BENCHMARK_NAMES, build_network
from repro.training.parallel import ParallelStrategy
from repro.vmem.policy import MigrationAction, MigrationPolicy


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestEveryWorkload:
    def test_plan_covers_every_noncheap_tensor(self, name):
        net = build_network(name)
        plans = MigrationPolicy().plan(net, 64)
        by_action = {}
        for plan in plans:
            by_action.setdefault(plan.action, []).append(plan.producer)
        offloaded = set(by_action.get(MigrationAction.OFFLOAD, []))
        for layer in net.layers:
            if layer.kind is LayerKind.INPUT:
                continue
            if layer.is_cheap:
                assert layer.name not in offloaded
            else:
                assert layer.name in offloaded

    def test_offload_prefetch_byte_conservation(self, name):
        net = build_network(name)
        config = dc_dla()
        plan = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        ops = build_iteration_ops(plan, config)
        out_bytes = sum(op.nbytes for op in ops.ops
                        if op.tag.startswith("offload:"))
        in_bytes = sum(op.nbytes for op in ops.ops
                       if op.tag.startswith("prefetch:"))
        assert out_bytes == in_bytes == plan.offload_bytes_per_device

    def test_backward_never_precedes_forward(self, name):
        net = build_network(name)
        config = mc_dla_bw()
        plan = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        timeline = schedule_ops(build_iteration_ops(plan, config))
        fwd_finish = {}
        for s in timeline.scheduled:
            if s.op.tag.startswith("fwd:"):
                fwd_finish[s.op.tag.split(":")[1]] = s.finish
        for s in timeline.scheduled:
            if s.op.tag.startswith("bwd:"):
                layer = s.op.tag.split(":")[1]
                assert s.start >= fwd_finish[layer] - 1e-12

    def test_prefetch_lands_before_its_backward_consumer(self, name):
        net = build_network(name)
        config = dc_dla()
        plan = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        timeline = schedule_ops(build_iteration_ops(plan, config))
        prefetch_finish = {}
        for s in timeline.scheduled:
            if s.op.tag.startswith("prefetch:"):
                prefetch_finish[s.op.tag.split(":")[1]] = s.finish
        consumer_of = {producer: site
                       for site, producers
                       in plan.step.prefetch_sites.items()
                       for producer in producers}
        bwd_start = {s.op.tag.split(":")[1]: s.start
                     for s in timeline.scheduled
                     if s.op.tag.startswith("bwd:")}
        for producer, finish in prefetch_finish.items():
            assert finish <= bwd_start[consumer_of[producer]] + 1e-12

    def test_oracle_faster_on_every_strategy(self, name):
        oracle = dc_dla_oracle()
        baseline = dc_dla()
        for strategy in (ParallelStrategy.DATA, ParallelStrategy.MODEL):
            plan_o = plan_iteration(build_network(name), oracle, 64,
                                    strategy)
            plan_b = plan_iteration(build_network(name), baseline, 64,
                                    strategy)
            t_o = schedule_ops(build_iteration_ops(plan_o, oracle))
            t_b = schedule_ops(build_iteration_ops(plan_b, baseline))
            assert t_o.makespan <= t_b.makespan + 1e-12

    def test_comm_engine_used_iff_multi_device_syncs(self, name):
        config = mc_dla_bw()
        plan = plan_iteration(build_network(name), config, 64,
                              ParallelStrategy.DATA)
        timeline = schedule_ops(build_iteration_ops(plan, config))
        has_sync = plan.sync_bytes_per_iteration > 0
        assert (timeline.busy_time(EngineKind.COMM) > 0) == has_sync
