"""Tests for parallel-training partitioning (paper Figure 3)."""

import pytest

from repro.collectives.ring_algorithm import Primitive
from repro.dnn.graph import Network
from repro.dnn.layers import LayerKind
from repro.dnn.registry import WORKLOAD_NAMES, build_network
from repro.training.backprop import TrainingStep, expand
from repro.training.parallel import (ParallelStrategy, SyncOp, partition,
                                     total_sync_bytes)
from repro.vmem.policy import MigrationAction, MigrationPolicy, TensorPlan


def reference_plans(net: Network, policy: MigrationPolicy,
                    batch: int) -> list[TensorPlan]:
    """The per-tensor records with the keep/recompute/offload rule
    written inline, as :meth:`MigrationPolicy.plan` derived them before
    the rule became :meth:`MigrationPolicy.action`."""
    plans = []
    for layer in net.layers:
        successors = net.successors(layer.name)
        last_use = successors[-1] if successors else layer.name
        if layer.kind is LayerKind.INPUT or not policy.virtualize:
            action = MigrationAction.RESIDENT
        elif layer.is_cheap and policy.recompute_cheap:
            action = MigrationAction.RECOMPUTE
        else:
            action = MigrationAction.OFFLOAD
        plans.append(TensorPlan(
            producer=layer.name, nbytes=layer.out_bytes(batch),
            action=action, offload_after=last_use,
            prefetch_before=last_use))
    return plans


def record_step(net: Network, plans: list[TensorPlan]) -> TrainingStep:
    """The reference expansion: the training step built from the
    policy's per-tensor records, as the simulator built it before
    :func:`expand` applied the policy's rule to each layer directly."""
    fwd = tuple(net.layer_names)
    bwd = tuple(name for name in reversed(fwd)
                if net.layer(name).kind is not LayerKind.INPUT)
    prefetch: dict[str, list[str]] = {}
    recompute: dict[str, list[str]] = {}
    for plan in plans:
        assert plan.offload_after == plan.prefetch_before
        if plan.action is MigrationAction.OFFLOAD:
            prefetch.setdefault(plan.prefetch_before, []).append(
                plan.producer)
        elif plan.action is MigrationAction.RECOMPUTE:
            recompute.setdefault(plan.prefetch_before, []).append(
                plan.producer)
    return TrainingStep(
        network=net.name, fwd_order=fwd, bwd_order=bwd,
        recompute_sites={k: tuple(v) for k, v in recompute.items()},
        prefetch_sites={k: tuple(v) for k, v in prefetch.items()},
        offloaded=tuple(plan.producer for plan in plans
                        if plan.action is MigrationAction.OFFLOAD))


class TestDataParallel:
    def test_weak_scaling_keeps_full_batch(self):
        net = build_network("AlexNet")
        parts = {p.name: p for p in partition(net, 512,
                                              ParallelStrategy.DATA, 8)}
        solo = {p.name: p for p in partition(net, 512,
                                             ParallelStrategy.DATA, 1)}
        # Per-device compute does not shrink with more workers.
        assert parts["conv1"].fwd_macs == solo["conv1"].fwd_macs
        assert parts["conv1"].out_shard_bytes \
            == solo["conv1"].out_shard_bytes

    def test_dw_allreduce_per_weighted_layer(self):
        net = build_network("VGG-E")
        parts = {p.name: p for p in partition(net, 512,
                                              ParallelStrategy.DATA, 8)}
        conv = parts["conv1_1"]
        assert conv.bwd_sync is not None
        assert conv.bwd_sync.primitive is Primitive.ALL_REDUCE
        assert conv.bwd_sync.nbytes \
            == net.layer("conv1_1").weight_bytes
        # No forward synchronization in data-parallel training.
        assert all(p.fwd_sync is None for p in parts.values())
        # Unweighted layers synchronize nothing.
        assert parts["relu1"].bwd_sync is None

    def test_single_device_never_synchronizes(self):
        net = build_network("AlexNet")
        parts = partition(net, 512, ParallelStrategy.DATA, 1)
        assert total_sync_bytes(parts) == 0

    def test_recurrent_dw_synchronized_once_per_group(self):
        net = build_network("RNN-GRU")
        parts = partition(net, 512, ParallelStrategy.DATA, 8)
        syncs = [p for p in parts if p.bwd_sync is not None]
        assert len(syncs) == 1
        # The sync fires at the group's first cell (last backward step).
        assert syncs[0].name == "cell_t0"
        assert syncs[0].bwd_sync.nbytes \
            == net.layer("cell_t0").weight_bytes


class TestModelParallel:
    def test_gemms_sharded_across_devices(self):
        net = build_network("VGG-E")
        mp = {p.name: p for p in partition(net, 512,
                                           ParallelStrategy.MODEL, 8)}
        dp = {p.name: p for p in partition(net, 512,
                                           ParallelStrategy.DATA, 8)}
        conv = net.layer("conv3_1")
        assert mp["conv3_1"].fwd_macs \
            == pytest.approx(dp["conv3_1"].fwd_macs / 8, rel=0.05)
        assert mp["conv3_1"].fwd_gemms[0].n \
            == conv.gemms[0].n // 8

    def test_layer_boundary_collectives(self):
        net = build_network("AlexNet")
        parts = {p.name: p for p in partition(net, 512,
                                              ParallelStrategy.MODEL, 8)}
        conv2 = parts["conv2"]
        assert conv2.fwd_sync.primitive is Primitive.ALL_GATHER
        assert conv2.fwd_sync.nbytes == net.layer("conv2").out_bytes(512)
        assert conv2.bwd_sync.primitive is Primitive.ALL_REDUCE

    def test_mp_syncs_more_than_dp(self):
        # Section II-C: model-parallel training synchronizes much more
        # (feature-map-sized collectives at every layer boundary vs a
        # single dW all-reduce per weighted layer).
        for name, factor in (("VGG-E", 50), ("AlexNet", 5)):
            net = build_network(name)
            mp = total_sync_bytes(partition(net, 512,
                                            ParallelStrategy.MODEL, 8))
            dp = total_sync_bytes(partition(net, 512,
                                            ParallelStrategy.DATA, 8))
            assert mp > factor * dp

    def test_gathered_feature_map_is_migrated_full_size(self):
        net = build_network("VGG-E")
        parts = {p.name: p for p in partition(net, 512,
                                              ParallelStrategy.MODEL, 8)}
        assert parts["conv1_1"].out_shard_bytes \
            == net.layer("conv1_1").out_bytes(512)

    def test_cheap_layers_split_without_sync(self):
        net = build_network("VGG-E")
        parts = {p.name: p for p in partition(net, 512,
                                              ParallelStrategy.MODEL, 8)}
        relu = parts["relu1"]
        assert relu.fwd_sync is None and relu.bwd_sync is None

    def test_rnn_cell_dx_sized_per_timestep(self):
        net = build_network("RNN-GEMV")
        parts = {p.name: p for p in partition(net, 512,
                                              ParallelStrategy.MODEL, 8)}
        cell = parts["cell_t5"]
        x_t = net.layer("x_t5").out_elems
        prev = net.layer("cell_t4").out_elems
        assert cell.bwd_sync.nbytes == (x_t + prev) * 512 * 4


class TestValidation:
    def test_rejects_bad_inputs(self):
        net = build_network("AlexNet")
        with pytest.raises(ValueError):
            partition(net, 0, ParallelStrategy.DATA, 8)
        with pytest.raises(ValueError):
            partition(net, 512, ParallelStrategy.DATA, 0)
        with pytest.raises(ValueError):
            SyncOp(Primitive.ALL_REDUCE, 0)


class TestTrainingStep:
    def test_backward_is_reverse_forward_without_inputs(self):
        net = build_network("AlexNet")
        step = expand(net, MigrationPolicy())
        assert step.fwd_order[0] == "data"
        assert "data" not in step.bwd_order
        non_input = [n for n in step.fwd_order if n != "data"]
        assert list(step.bwd_order) == list(reversed(non_input))

    def test_prefetch_and_recompute_sites_partition_tensors(self):
        net = build_network("AlexNet")
        step = expand(net, MigrationPolicy())
        prefetched = {p for ps in step.prefetch_sites.values()
                      for p in ps}
        recomputed = {p for ps in step.recompute_sites.values()
                      for p in ps}
        assert prefetched.isdisjoint(recomputed)
        assert "conv1" in prefetched
        assert "relu1" in recomputed

    def test_oracle_step_has_no_sites(self):
        net = build_network("AlexNet")
        step = expand(net, MigrationPolicy(virtualize=False))
        assert not step.prefetch_sites and not step.recompute_sites

    @pytest.mark.parametrize("recompute_cheap", (True, False))
    @pytest.mark.parametrize("virtualize", (True, False))
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_step_equals_the_record_based_step(self, name, virtualize,
                                               recompute_cheap):
        net = build_network(name)
        policy = MigrationPolicy(virtualize=virtualize,
                                 recompute_cheap=recompute_cheap)
        step = expand(net, policy)
        for batch in (1, 64):
            plans = policy.plan(net, batch)
            assert plans == reference_plans(net, policy, batch)
            assert step == record_step(net, plans)
