"""Tests for repro.dnn.graph (the network DAG)."""

import pytest

from repro.dnn.graph import (Network, NetworkSummary, input_layer,
                             weight_owners)
from repro.dnn.layers import Layer, LayerKind
from repro.dnn.registry import WORKLOAD_NAMES, build_network
from repro.dnn.shapes import fc_gemm
from repro.units import FP32_BYTES


def reuse_distance(net: Network, name: str) -> int:
    """Layers between ``name``'s last forward use and its first
    backward use: the reference model of vDNN's reuse distance.

    With forward order ``0..L-1`` and backward order ``L-1..0``, a
    tensor last consumed in forward by layer *j* is next needed by
    layer *j*'s backward pass; the gap is the forward steps left after
    *j* plus the backward steps until control returns to *j* -- the
    scheduling slack available to hide its migration.
    """
    last_use = net.layer_names.index(net.last_forward_consumer(name))
    return 2 * (len(net) - 1 - last_use)


def linear_net(depth=3):
    """input -> fc1 -> fc2 -> ... (each 10 wide)."""
    net = Network("linear")
    net.add_layer(input_layer("in", 10))
    prev = "in"
    for i in range(1, depth + 1):
        net.add_layer(Layer(name=f"fc{i}", kind=LayerKind.FC,
                            out_elems=10, weight_elems=100,
                            gemms=(fc_gemm(10, 10),)),
                      inputs=[prev])
        prev = f"fc{i}"
    net.validate()
    return net


def diamond_net():
    """input -> a -> {b, c} -> d (concat)."""
    net = Network("diamond")
    net.add_layer(input_layer("in", 8))
    net.add_layer(Layer(name="a", kind=LayerKind.FC, out_elems=8,
                        weight_elems=64, gemms=(fc_gemm(8, 8),)),
                  inputs=["in"])
    for branch in ("b", "c"):
        net.add_layer(Layer(name=branch, kind=LayerKind.FC, out_elems=4,
                            weight_elems=32, gemms=(fc_gemm(4, 8),)),
                      inputs=["a"])
    net.add_layer(Layer(name="d", kind=LayerKind.CONCAT, out_elems=8,
                        stream_elems=16), inputs=["b", "c"])
    net.validate()
    return net


class TestConstruction:
    def test_rejects_duplicate_names(self):
        net = Network("n")
        net.add_layer(input_layer("in", 4))
        with pytest.raises(ValueError):
            net.add_layer(input_layer("in", 4))

    def test_rejects_unknown_producer(self):
        net = Network("n")
        with pytest.raises(ValueError):
            net.add_layer(Layer(name="x", kind=LayerKind.ACT,
                                out_elems=1), inputs=["ghost"])

    def test_validate_rejects_orphan_noninput(self):
        net = Network("n")
        net.add_layer(Layer(name="orphan", kind=LayerKind.ACT,
                            out_elems=1))
        with pytest.raises(ValueError):
            net.validate()

    def test_layer_lookup_and_membership(self):
        net = linear_net()
        assert "fc1" in net
        assert "nope" not in net
        assert net.layer("fc1").kind is LayerKind.FC
        assert len(net) == 4

    @pytest.mark.parametrize("query", ("layer", "predecessors",
                                       "successors"))
    def test_unknown_name_raises_key_error_naming_it(self, query):
        net = linear_net()
        with pytest.raises(KeyError, match="ghost"):
            getattr(net, query)("ghost")

    def test_duplicate_inputs_are_one_edge(self):
        net = Network("dup")
        net.add_layer(input_layer("in", 4))
        net.add_layer(Layer(name="sum", kind=LayerKind.ELTWISE,
                            out_elems=4), inputs=["in", "in"])
        net.validate()
        assert net.predecessors("sum") == ["in"]
        assert net.successors("in") == ["sum"]


class TestOrdering:
    def test_insertion_order_is_topological(self):
        net = diamond_net()
        order = net.layer_names
        assert order.index("a") < order.index("b")
        assert order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_predecessors_and_successors_sorted(self):
        net = diamond_net()
        assert net.predecessors("d") == ["b", "c"]
        assert net.successors("a") == ["b", "c"]

    def test_last_forward_consumer(self):
        net = diamond_net()
        assert net.last_forward_consumer("a") == "c"
        assert net.last_forward_consumer("d") == "d"  # no consumers

    def test_reuse_distance_shrinks_toward_output(self):
        net = linear_net(depth=5)
        distances = [reuse_distance(net, f"fc{i}") for i in range(1, 6)]
        assert distances == sorted(distances, reverse=True)
        assert reuse_distance(net, "fc5") == 0


class TestAccounting:
    def test_weight_bytes(self):
        net = linear_net(depth=3)
        assert net.weight_bytes() == 3 * 100 * FP32_BYTES

    def test_weight_groups_counted_once(self):
        net = Network("shared")
        net.add_layer(input_layer("in", 4))
        prev = "in"
        for t in range(3):
            net.add_layer(Layer(name=f"cell{t}",
                                kind=LayerKind.RNN_CELL, out_elems=4,
                                weight_elems=16, weight_group="g"),
                          inputs=[prev])
            prev = f"cell{t}"
        assert net.weight_bytes() == 16 * FP32_BYTES
        assert net.learned_layer_count == 1

    def test_weight_owners_are_local_to_the_layers_passed(self):
        net = Network("tied")
        net.add_layer(input_layer("in", 4))
        specs = [("embed", LayerKind.EMBEDDING, 16, "t"),
                 ("fc", LayerKind.FC, 8, ""),
                 ("act", LayerKind.ACT, 0, ""),
                 ("head", LayerKind.FC, 16, "t")]
        prev = "in"
        for name, kind, weights, group in specs:
            net.add_layer(Layer(name=name, kind=kind, out_elems=4,
                                weight_elems=weights, weight_group=group),
                          inputs=[prev])
            prev = name
        layers = net.layers
        # Unweighted layers own nothing; a group is owned once, by its
        # first member among the layers passed.
        assert [layer.name for layer in weight_owners(layers)] \
            == ["embed", "fc"]
        assert [layer.name for layer in weight_owners(layers[2:])] \
            == ["fc", "head"]
        assert net.weight_bytes() == (16 + 8) * FP32_BYTES

    def test_feature_map_bytes(self):
        net = linear_net(depth=2)
        # input (10) + fc1 (10) + fc2 (10) elems per sample.
        assert net.feature_map_bytes(2) == 2 * 30 * FP32_BYTES

    def test_virtualized_bytes_excludes_input_and_cheap(self):
        net = diamond_net()
        # a, b, c are FC (offloadable); d is a cheap concat; input out.
        expected = (8 + 4 + 4) * 1 * FP32_BYTES
        assert net.virtualized_bytes(1) == expected

    def test_training_footprint_is_o_of_depth(self):
        shallow = linear_net(depth=2).training_footprint_bytes(4)
        deep = linear_net(depth=8).training_footprint_bytes(4)
        assert deep > shallow

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_cached_totals_equal_the_layer_walks(self, name):
        """The totals kept per network version, scaled by the batch,
        are the sums and maxima of every layer at that batch."""
        net = build_network(name)
        weights = sum(layer.weight_bytes
                      for layer in weight_owners(net.layers))
        for batch in (1, 3, 64, 512):
            maps = sum(layer.out_bytes(batch) for layer in net.layers)
            peak = max(layer.out_bytes(batch) for layer in net.layers)
            assert net.weight_bytes() == weights
            assert net.feature_map_bytes(batch) == maps
            assert net.training_footprint_bytes(batch) \
                == 2 * weights + maps
            assert net.inference_footprint_bytes(batch) \
                == weights + 2 * peak

    def test_add_layer_invalidates_cached_totals(self):
        net = linear_net(depth=2)
        weights = net.weight_bytes()
        maps = net.feature_map_bytes(2)
        assert net.inference_footprint_bytes(2) \
            == weights + 2 * 2 * 10 * FP32_BYTES
        net.add_layer(Layer(name="wide", kind=LayerKind.FC, out_elems=50,
                            weight_elems=500, gemms=(fc_gemm(50, 10),)),
                      inputs=["fc2"])
        assert net.weight_bytes() == weights + 500 * FP32_BYTES
        assert net.feature_map_bytes(2) == maps + 2 * 50 * FP32_BYTES
        assert net.inference_footprint_bytes(2) \
            == net.weight_bytes() + 2 * 2 * 50 * FP32_BYTES

    def test_byte_totals_check_the_batch(self):
        net = linear_net(depth=2)
        for total in (net.feature_map_bytes, net.training_footprint_bytes,
                      net.inference_footprint_bytes):
            with pytest.raises(ValueError, match="batch"):
                total(0)

    def test_macs_aggregation(self):
        net = linear_net(depth=3)
        assert net.fwd_macs(2) == 3 * 2 * 10 * 10
        assert net.bwd_macs(2) == 2 * net.fwd_macs(2)


class TestSummary:
    def test_summary_fields(self):
        summary = NetworkSummary.of(linear_net(depth=3), batch=4)
        assert summary.name == "linear"
        assert summary.layer_count == 4
        assert summary.learned_layers == 3
        assert summary.weight_mbytes > 0
        assert summary.fwd_gmacs > 0
