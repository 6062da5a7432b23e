"""Tests for repro.interconnect.link and repro.interconnect.topology."""

import pytest

from repro.interconnect.link import (NVLINK, NVLINK2, PCIE_GEN3, PCIE_GEN4,
                                     LinkSpec)
from repro.interconnect.topology import (NodeKind, Topology, device, host,
                                         memory, switch)
from repro.units import GBPS


class TestLinkSpec:
    def test_table_ii_nvlink(self):
        assert NVLINK.uni_bw == 25 * GBPS
        assert NVLINK.bidir_bw == 50 * GBPS

    def test_pcie_gen4_doubles_gen3(self):
        assert PCIE_GEN4.uni_bw == 2 * PCIE_GEN3.uni_bw

    def test_nvlink2_doubles_nvlink(self):
        assert NVLINK2.uni_bw == 2 * NVLINK.uni_bw

    def test_transfer_time(self):
        link = LinkSpec("l", uni_bw=10 * GBPS, latency=1e-6)
        assert link.transfer_time(10 * GBPS) == pytest.approx(1.0 + 1e-6)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            LinkSpec("l", uni_bw=0, latency=0)
        with pytest.raises(ValueError):
            LinkSpec("l", uni_bw=1, latency=-1)
        with pytest.raises(ValueError):
            NVLINK.transfer_time(-1)


class TestNodeIds:
    def test_str_forms(self):
        assert str(device(0)) == "D0"
        assert str(memory(7)) == "M7"
        assert str(host(1)) == "H1"
        assert str(switch(2)) == "S2"

    def test_identity(self):
        assert device(3) == device(3)
        assert device(3) != memory(3)


class TestTopology:
    def test_add_and_query(self):
        topo = Topology("t")
        a, b = topo.add_node(device(0)), topo.add_node(device(1))
        topo.add_link(a, b, NVLINK)
        topo.add_link(a, b, NVLINK)
        assert topo.degree(a) == 2
        assert topo.bandwidth_between(a, b) == 50 * GBPS
        assert len(topo.links_between(a, b)) == 2

    def test_parallel_links_in_insertion_order(self):
        topo = Topology("t")
        a, b = topo.add_node(device(0)), topo.add_node(host(0))
        c = topo.add_node(device(1))
        topo.add_link(a, b, NVLINK)
        topo.add_link(a, c, NVLINK)
        topo.add_link(b, a, PCIE_GEN3)
        assert topo.links_between(a, b) == [NVLINK, PCIE_GEN3]
        assert topo.links_between(b, a) == [NVLINK, PCIE_GEN3]
        assert topo.links_between(b, c) == []
        assert topo.degree(a) == 3 and topo.degree(c) == 1

    def test_rejects_self_link(self):
        topo = Topology("t")
        a = topo.add_node(device(0))
        with pytest.raises(ValueError):
            topo.add_link(a, a, NVLINK)

    def test_rejects_unknown_node(self):
        topo = Topology("t")
        a = topo.add_node(device(0))
        with pytest.raises(ValueError):
            topo.add_link(a, device(9), NVLINK)

    def test_rejects_duplicate_node(self):
        topo = Topology("t")
        topo.add_node(device(0))
        with pytest.raises(ValueError):
            topo.add_node(device(0))

    def test_nodes_filter_by_kind(self):
        topo = Topology("t")
        topo.add_node(device(1))
        topo.add_node(memory(0))
        topo.add_node(device(0))
        assert topo.nodes(NodeKind.DEVICE) == [device(0), device(1)]
        assert topo.nodes(NodeKind.MEMORY) == [memory(0)]

    def test_degree_by_link_name(self):
        topo = Topology("t")
        a, b = topo.add_node(device(0)), topo.add_node(host(0))
        topo.add_link(a, b, NVLINK)
        topo.add_link(a, b, PCIE_GEN3)
        assert topo.degree(a, NVLINK.name) == 1
        assert topo.degree(a, PCIE_GEN3.name) == 1

    def test_link_budget_enforced(self):
        topo = Topology("t", max_links=2)
        a, b = topo.add_node(device(0)), topo.add_node(device(1))
        for _ in range(3):
            topo.add_link(a, b, NVLINK)
        with pytest.raises(ValueError):
            topo.validate_link_budget(NVLINK.name)

    def test_link_budget_ignores_other_specs(self):
        topo = Topology("t", max_links=1)
        a = topo.add_node(device(0))
        h = topo.add_node(host(0))
        topo.add_link(a, h, PCIE_GEN3)
        topo.validate_link_budget(NVLINK.name)  # PCIe doesn't count
