"""Node and topology graph models for the device-side interconnect.

A topology is a multigraph of nodes (device-nodes, memory-nodes, host
CPUs, PCIe switches) joined by physical links.  The collective layer
casts topologies into ring networks (:mod:`repro.interconnect.ring`);
builders for the paper's concrete topologies live in
:mod:`repro.interconnect.builders`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.enums import Enum
from repro.interconnect.link import LinkSpec


class NodeKind(Enum):
    DEVICE = "device"     # GPU/TPU accelerator (paper: device-node)
    MEMORY = "memory"     # capacity-optimized memory-node
    HOST = "host"         # host CPU socket
    SWITCH = "switch"     # PCIe switch


@dataclass(frozen=True)
class NodeId:
    """Stable node identity, e.g. D0..D7, M0..M7, H0, S0."""

    kind: NodeKind
    index: int

    def __str__(self) -> str:
        prefix = {NodeKind.DEVICE: "D", NodeKind.MEMORY: "M",
                  NodeKind.HOST: "H", NodeKind.SWITCH: "S"}[self.kind]
        return f"{prefix}{self.index}"


def device(index: int) -> NodeId:
    return NodeId(NodeKind.DEVICE, index)


def memory(index: int) -> NodeId:
    return NodeId(NodeKind.MEMORY, index)


def host(index: int) -> NodeId:
    return NodeId(NodeKind.HOST, index)


def switch(index: int) -> NodeId:
    return NodeId(NodeKind.SWITCH, index)


class Topology:
    """A multigraph of nodes and physical links with budget checking.

    ``max_links`` caps the number of high-bandwidth link endpoints per
    device/memory node (N=6 in the baseline configuration); PCIe
    endpoints are tracked separately since every device has exactly one
    legacy host interface.
    """

    def __init__(self, name: str, max_links: int = 6) -> None:
        self.name = name
        self.max_links = max_links
        #: node -> its incident links as ``(peer, spec, tag)``, in the
        #: order they were added (parallel links stay distinct).
        self._links: dict[NodeId, list[tuple[NodeId, LinkSpec, str]]] = {}

    def add_node(self, node: NodeId) -> NodeId:
        if node in self._links:
            raise ValueError(f"duplicate node {node}")
        self._links[node] = []
        return node

    def add_link(self, a: NodeId, b: NodeId, spec: LinkSpec,
                 tag: str = "") -> None:
        """Add one physical link between two existing nodes."""
        if a == b:
            raise ValueError(f"self-link on {a}")
        for n in (a, b):
            if n not in self._links:
                raise ValueError(f"unknown node {n}")
        self._links[a].append((b, spec, tag))
        self._links[b].append((a, spec, tag))

    # -- Queries -----------------------------------------------------------

    def nodes(self, kind: NodeKind | None = None) -> list[NodeId]:
        nodes = list(self._links)
        if kind is not None:
            nodes = [n for n in nodes if n.kind is kind]
        return sorted(nodes, key=lambda n: (n.kind.value, n.index))

    def degree(self, node: NodeId, link_name: str | None = None) -> int:
        """Number of link endpoints at ``node`` (optionally by spec name)."""
        return sum(1 for _, spec, _ in self._links[node]
                   if link_name is None or spec.name == link_name)

    def links_between(self, a: NodeId, b: NodeId) -> list[LinkSpec]:
        """Parallel links joining ``a`` and ``b``, in insertion order."""
        return [spec for peer, spec, _ in self._links.get(a, ())
                if peer == b]

    def bandwidth_between(self, a: NodeId, b: NodeId) -> float:
        """Aggregate uni-directional bandwidth across parallel links."""
        return sum(spec.uni_bw for spec in self.links_between(a, b))

    def validate_link_budget(self, hb_link_name: str) -> None:
        """Every device/memory node must respect the N-link budget."""
        for node in self.nodes(NodeKind.DEVICE) + self.nodes(NodeKind.MEMORY):
            used = self.degree(node, hb_link_name)
            if used > self.max_links:
                raise ValueError(
                    f"{self.name}: node {node} uses {used} high-bandwidth "
                    f"links, budget is {self.max_links}")
