"""Builders for the paper's concrete system interconnect topologies.

Each builder returns a :class:`SystemTopology`: the physical multigraph
(validated against the N-link-per-node budget), the *logical* collective
ring set the NCCL-style scheduler times operations over, and the
memory-virtualization channel description the system simulator consumes.

Topologies built here:

* :func:`build_dc_dla` -- DGX-1V-style cube-mesh flattened into three
  8-device rings; virtualization over PCIe through switches (Figure 5).
* :func:`build_hc_dla` -- Summit-style: half the links to the host CPU,
  the rest forming "singular or duo" device rings (Section II-C).
* :func:`build_fig7a_derivative` -- the strawman of Figure 7(a): two
  8-device rings kept, one ring rerouted through all memory-nodes
  (24 hops, every memory-node visited twice -- footnote 1).
* :func:`build_mc_dla_star` -- the folded design of Figure 7(b), the
  paper's MC-DLA(S): rings of 8/12/20 hops.
* :func:`build_mc_dla_ring` -- the proposed design of Figure 7(c):
  three identical 16-node alternating device/memory rings; every device
  owns half of its left and right memory-nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.enums import Enum
from repro.interconnect.link import NVLINK, PCIE_GEN3, LinkSpec
from repro.interconnect.ring import Ring, RingSet
from repro.interconnect.topology import (NodeId, Topology, device, host,
                                         memory, switch)


class VmemTarget(Enum):
    """Where a design's virtualization traffic lands."""

    NONE = "none"          # oracle: no migration
    HOST = "host"          # CPU DRAM over PCIe or NVLINK
    MEMORY_NODE = "memnode"


@dataclass(frozen=True)
class VmemChannel:
    """Per-device backing-store channel of one design point.

    ``peak_bw``: bandwidth one device sees with no contention.
    ``concurrent_bw``: sustained per-device bandwidth when every device
    in the node migrates simultaneously (uplink sharing; Section I:
    "effective host-device bandwidth per device gets proportionally
    reduced to the number of intra-node devices").
    """

    target: VmemTarget
    peak_bw: float
    concurrent_bw: float

    def __post_init__(self) -> None:
        if self.target is VmemTarget.NONE:
            if self.peak_bw or self.concurrent_bw:
                raise ValueError("oracle channel carries no bandwidth")
            return
        if self.peak_bw <= 0 or self.concurrent_bw <= 0:
            raise ValueError("vmem bandwidth must be positive")
        if self.concurrent_bw > self.peak_bw + 1e-9:
            raise ValueError("concurrent bandwidth cannot exceed peak")


NO_VMEM = VmemChannel(VmemTarget.NONE, 0.0, 0.0)


@dataclass
class SystemTopology:
    """A built system interconnect ready for simulation."""

    name: str
    topo: Topology
    rings: RingSet
    n_devices: int
    vmem: VmemChannel

    def collective_channels(self) -> list[tuple[int, float]]:
        """(hop count, ring bandwidth) pairs for the collective layer."""
        return [(r.hop_count, r.algorithm_bandwidth)
                for r in self.rings.rings]


# The three DGX-1V ring orderings over devices 0..7.  Exact orders are
# irrelevant to the latency model (all are 8-hop cycles); they are kept
# distinct so the multigraph resembles the cube-mesh of Figure 5.
_DGX_RING_ORDERS = (
    (0, 1, 2, 3, 7, 6, 5, 4),
    (0, 2, 6, 4, 5, 7, 3, 1),
    (0, 4, 5, 1, 3, 7, 6, 2),
)


def _add_devices(topo: Topology, count: int) -> list[NodeId]:
    return [topo.add_node(device(i)) for i in range(count)]


def _add_memories(topo: Topology, count: int) -> list[NodeId]:
    return [topo.add_node(memory(i)) for i in range(count)]


def _add_pcie_tree(topo: Topology, devices: list[NodeId],
                   pcie: LinkSpec = PCIE_GEN3,
                   devices_per_switch: int = 2,
                   switches_per_host: int = 2) -> None:
    """Host CPUs <- PCIe switches <- devices, DGX-1 style."""
    n_switches = max(1, len(devices) // devices_per_switch)
    n_hosts = max(1, n_switches // switches_per_host)
    hosts = [topo.add_node(host(i)) for i in range(n_hosts)]
    for s in range(n_switches):
        sw = topo.add_node(switch(s))
        topo.add_link(sw, hosts[min(s // switches_per_host,
                                    n_hosts - 1)], pcie, tag="uplink")
    for i, dev in enumerate(devices):
        topo.add_link(dev, switch(min(i // devices_per_switch,
                                      n_switches - 1)), pcie, tag="pcie")


def build_dc_dla(n_devices: int = 8, link: LinkSpec = NVLINK,
                 pcie: LinkSpec = PCIE_GEN3,
                 shared_uplinks: bool = False) -> SystemTopology:
    """Device-centric baseline: Figure 5's cube-mesh as three rings.

    ``shared_uplinks=True`` models a DGX-1-style PCIe tree where two
    devices share each switch uplink, halving sustained per-device
    migration bandwidth when all devices DMA concurrently (an ablation;
    the default grants every device its full spec-rate PCIe channel,
    conservative toward the baseline).
    """
    if n_devices < 2:
        raise ValueError("need at least 2 devices")
    topo = Topology("DC-DLA", max_links=6)
    devs = _add_devices(topo, n_devices)

    rings = RingSet()
    for index in range(3):
        if n_devices == 8:
            order = tuple(devs[i] for i in _DGX_RING_ORDERS[index])
        else:
            order = tuple(devs)
        rings.add(Ring(f"ring{index}", order, link))
    rings.validate_same_participants()
    rings.materialize(topo)

    _add_pcie_tree(topo, devs, pcie)
    topo.validate_link_budget(link.name)

    concurrent = pcie.uni_bw / 2 if shared_uplinks else pcie.uni_bw
    vmem = VmemChannel(VmemTarget.HOST, peak_bw=pcie.uni_bw,
                       concurrent_bw=concurrent)
    return SystemTopology("DC-DLA", topo, rings, n_devices, vmem)


def build_hc_dla(n_devices: int = 8,
                 link: LinkSpec = NVLINK) -> SystemTopology:
    """Host-centric design: N/2 links to the CPU, the rest for rings.

    The three leftover links per device form one full duplex ring plus
    pairwise exchange links that the collective scheduler time-shares as
    a second, half-rate logical ring (the paper's "singular or duo ring
    networks").
    """
    if n_devices < 2 or n_devices % 2:
        raise ValueError("need an even device count >= 2")
    topo = Topology("HC-DLA", max_links=6)
    devs = _add_devices(topo, n_devices)
    hosts = [topo.add_node(host(i)) for i in range(2)]
    for i, dev in enumerate(devs):
        sock = hosts[0] if i < n_devices // 2 else hosts[-1]
        for _ in range(3):
            topo.add_link(dev, sock, link, tag="cpu")

    ring0 = Ring("ring0", tuple(devs), link)
    # One leftover link per device: pair them up physically ...
    for i in range(0, n_devices, 2):
        topo.add_link(devs[i], devs[i + 1], link, tag="pair")
    # ... and expose them as a half-rate logical ring for collectives.
    ring1 = Ring("ring1", tuple(devs), link, duplex=False)

    rings = RingSet([ring0, ring1])
    rings.validate_same_participants()
    for a, b in ring0.edges():
        topo.add_link(a, b, link, tag="ring0")
    topo.validate_link_budget(link.name)

    per_device = 3 * link.uni_bw  # 3 links read/write CPU DRAM
    vmem = VmemChannel(VmemTarget.HOST, peak_bw=per_device,
                       concurrent_bw=per_device)
    return SystemTopology("HC-DLA", topo, rings, n_devices, vmem)


def _alternating_order(devs: list[NodeId], mems: list[NodeId],
                       mem_offset: int = -1) -> tuple[NodeId, ...]:
    """M(i+offset) D(i) M(i+offset+1) D(i+1) ... alternating cycle."""
    order: list[NodeId] = []
    n = len(devs)
    for i in range(n):
        order.append(mems[(i + mem_offset) % n])
        order.append(devs[i])
    return tuple(order)


def build_mc_dla_ring(n_devices: int = 8,
                      link: LinkSpec = NVLINK) -> SystemTopology:
    """The proposed ring-based MC-DLA of Figure 7(c).

    All three rings share the alternating device/memory order, so every
    device reaches its left and right memory-nodes over N/2 = 3 parallel
    links each.  The returned ``vmem`` channel reports the BW_AWARE
    bandwidth (all N links); the LOCAL policy reaches one neighbour only
    and achieves half of it (Figure 10).
    """
    if n_devices < 2:
        raise ValueError("need at least 2 devices")
    topo = Topology("MC-DLA", max_links=6)
    devs = _add_devices(topo, n_devices)
    mems = _add_memories(topo, n_devices)

    order = _alternating_order(devs, mems)
    rings = RingSet()
    for index in range(3):
        rings.add(Ring(f"ring{index}", order, link))
    rings.validate_same_participants()
    rings.materialize(topo)

    _add_pcie_tree(topo, devs)  # legacy PCIe retained for control traffic
    topo.validate_link_budget(link.name)

    per_device = 6 * link.uni_bw  # both neighbours, 3 links each
    vmem = VmemChannel(VmemTarget.MEMORY_NODE, peak_bw=per_device,
                       concurrent_bw=per_device)
    return SystemTopology("MC-DLA", topo, rings, n_devices, vmem)


def build_mc_dla_star(n_devices: int = 8,
                      link: LinkSpec = NVLINK) -> SystemTopology:
    """The folded design of Figure 7(b) -- the paper's MC-DLA(S).

    Ring hop counts are 8, 12, and 20 (the 20-hop ring revisits four
    memory-nodes); every device is adjacent to memory-nodes over exactly
    two of its ring links, for 50 GB/s of virtualization bandwidth, and
    the unbalanced longest ring bottlenecks collectives.
    """
    if n_devices != 8:
        raise ValueError("the folded design is defined for 8 devices")
    topo = Topology("MC-DLA(S)", max_links=6)
    devs = _add_devices(topo, n_devices)
    mems = _add_memories(topo, n_devices)

    ring8 = Ring("ring8", tuple(devs), link)
    ring12 = Ring(
        "ring12",
        (devs[0], mems[1], devs[1], devs[2], mems[3], devs[3],
         devs[4], mems[5], devs[5], devs[6], mems[7], devs[7]),
        link)
    ring20 = Ring(
        "ring20",
        (devs[0], mems[0], devs[1], mems[2], devs[2], mems[4],
         devs[3], mems[6], devs[4], devs[5], devs[6], devs[7]),
        link, extra_hops=8)
    rings = RingSet([ring8, ring12, ring20])
    rings.validate_same_participants()
    rings.materialize(topo)
    topo.validate_link_budget(link.name)

    vmem = VmemChannel(VmemTarget.MEMORY_NODE, peak_bw=2 * link.uni_bw,
                       concurrent_bw=2 * link.uni_bw)
    return SystemTopology("MC-DLA(S)", topo, rings, n_devices, vmem)


def build_fig7a_derivative(n_devices: int = 8,
                           link: LinkSpec = NVLINK) -> SystemTopology:
    """The strawman of Figure 7(a), kept for design-space studies.

    Two 8-hop device rings survive; the third ring is rerouted through
    every memory-node, visiting each twice (24 hops), giving each device
    two dedicated links to its designated memory-node (50 GB/s).
    """
    if n_devices != 8:
        raise ValueError("the Figure 7(a) design is defined for 8 devices")
    topo = Topology("MC-DLA(7a)", max_links=6)
    devs = _add_devices(topo, n_devices)
    mems = _add_memories(topo, n_devices)

    ring_a = Ring("ring8a", tuple(devs), link)
    ring_b = Ring("ring8b", tuple(devs[i] for i in _DGX_RING_ORDERS[1]),
                  link)
    rings = RingSet([ring_a, ring_b])
    rings.materialize(topo)

    # The rerouted black-arrow ring: ...M0 -> D0 -> M0 -> M7 -> D7...
    # Two parallel links Dn <-> Mn plus one Mn <-> Mn-1 chain link.
    for i in range(n_devices):
        topo.add_link(devs[i], mems[i], link, tag="backing")
        topo.add_link(devs[i], mems[i], link, tag="backing")
        topo.add_link(mems[i], mems[i - 1], link, tag="chain")
    ring_c = Ring("ring24", _alternating_order(devs, mems), link,
                  extra_hops=8)
    rings.add(ring_c)
    rings.validate_same_participants()
    topo.validate_link_budget(link.name)

    vmem = VmemChannel(VmemTarget.MEMORY_NODE, peak_bw=2 * link.uni_bw,
                       concurrent_bw=2 * link.uni_bw)
    return SystemTopology("MC-DLA(7a)", topo, rings, n_devices, vmem)
