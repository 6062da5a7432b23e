"""The network DAG.

The paper's memory virtualization (Section II-B) hinges on the DL
framework extracting a compile-time DAG of the network and using data
dependencies to derive each tensor's *reuse distance*, which in turn
schedules the offload/prefetch DMA operations.  :class:`Network` is that
DAG: nodes are :class:`~repro.dnn.layers.Layer` objects, edges are
producer -> consumer feature-map dependencies.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.dnn.layers import Layer, LayerKind, check_batch
from repro.units import FP32_BYTES


#: Layer name -> neighbouring layer names, in insertion order.
Neighbours = Mapping[str, tuple[str, ...]]


class Network:
    """A directed acyclic graph of layers with analysis helpers.

    Layers are kept in insertion order, which must be a valid topological
    order (builders construct networks front to back); this keeps
    simulation schedules deterministic.  Each layer records the producers
    it was wired from; :meth:`add_layer` only accepts producers that
    already exist, so every edge points forward in insertion order and the
    graph is acyclic by construction.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: name -> layer, in (topological) insertion order.
        self._layers: dict[str, Layer] = {}
        #: name -> producers as passed to :meth:`add_layer`.
        self._inputs: dict[str, list[str]] = {}
        #: Mutation counter; bumps on every :meth:`add_layer`.  Caches
        #: keyed on ``(network, version)`` can never replay stale
        #: adjacency or pricing for a graph edited after caching.
        self._version = 0
        self._adjacency: tuple[dict[str, int], Neighbours,
                               Neighbours] | None = None
        self._totals: tuple[int, int, int] | None = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (for external memo keys)."""
        return self._version

    def _adj(self) -> tuple[dict[str, int], Neighbours, Neighbours]:
        """(position, predecessors, successors) maps, built once.

        Both neighbour tuples are sorted by insertion position, and a
        producer named twice in one layer's inputs is one edge.  Built in
        one pass and cached until the next mutation: the simulator asks
        for neighbours hundreds of times per op table.
        """
        if self._adjacency is None:
            position = {n: i for i, n in enumerate(self._layers)}
            by_pos = position.__getitem__
            preds = {n: tuple(sorted(set(srcs), key=by_pos))
                     for n, srcs in self._inputs.items()}
            succs: dict[str, list[str]] = {n: [] for n in self._layers}
            for n, srcs in preds.items():
                for src in srcs:
                    succs[src].append(n)
            self._adjacency = (
                position, MappingProxyType(preds), MappingProxyType(
                    {n: tuple(consumers) for n, consumers in succs.items()}))
        return self._adjacency

    def _sizes(self) -> tuple[int, int, int]:
        """(unique weight bytes, summed and peak feature-map elements
        per sample), computed once and cached until the next mutation,
        like the adjacency: the byte totals scale them by the batch."""
        if self._totals is None:
            elems = [layer.out_elems for layer in self._layers.values()]
            self._totals = (
                sum(layer.weight_bytes
                    for layer in weight_owners(self._layers.values())),
                sum(elems), max(elems, default=0))
        return self._totals

    # -- Construction ------------------------------------------------------

    def add_layer(self, layer: Layer, inputs: list[str] | None = None) -> Layer:
        """Add ``layer``, wiring edges from each named producer."""
        if layer.name in self._layers:
            raise ValueError(f"duplicate layer name: {layer.name}")
        for src in inputs or []:
            if src not in self._layers:
                raise ValueError(
                    f"layer {layer.name} consumes unknown layer {src}")
        self._layers[layer.name] = layer
        self._inputs[layer.name] = list(inputs or [])
        self._version += 1
        self._adjacency = None
        self._totals = None
        return layer

    def validate(self) -> None:
        """Check the invariants builders must maintain."""
        position, preds, _ = self._adj()
        for dst, srcs in preds.items():
            for src in srcs:
                if position[src] >= position[dst]:
                    raise ValueError(
                        f"insertion order is not topological: "
                        f"{src} -> {dst}")
        for name, layer in self._layers.items():
            if layer.kind is not LayerKind.INPUT and not preds[name]:
                raise ValueError(f"non-input layer {name} has no producer")

    # -- Accessors ---------------------------------------------------------

    def _unknown(self, name: str) -> KeyError:
        return KeyError(f"network {self.name} has no layer {name!r}")

    def layer(self, name: str) -> Layer:
        """The :class:`Layer` registered as ``name``."""
        try:
            return self._layers[name]
        except KeyError:
            raise self._unknown(name) from None

    @property
    def layer_names(self) -> list[str]:
        """Layer names in (topological) insertion order."""
        return list(self._layers)

    @property
    def layers(self) -> list[Layer]:
        return list(self._layers.values())

    def neighbours(self) -> tuple[Neighbours, Neighbours]:
        """The cached ``(predecessors, successors)`` maps: every
        layer's producers and consumers, in insertion order.

        Read-only views of the maps :meth:`predecessors` and
        :meth:`successors` copy from, valid until the next mutation;
        an emitter reads them once per emission instead of copying a
        neighbour list per layer.
        """
        _, preds, succs = self._adj()
        return preds, succs

    def predecessors(self, name: str) -> list[str]:
        """Producers of ``name``, in topological (insertion) order."""
        try:
            return list(self._adj()[1][name])
        except KeyError:
            raise self._unknown(name) from None

    def successors(self, name: str) -> list[str]:
        """Consumers of ``name``, in topological (insertion) order."""
        try:
            return list(self._adj()[2][name])
        except KeyError:
            raise self._unknown(name) from None

    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    # -- Analyses ----------------------------------------------------------

    def last_forward_consumer(self, name: str) -> str:
        """The topologically-last layer that reads ``name``'s output.

        A tensor becomes eligible for offload to the backing store only
        after this layer's forward pass has run (Section IV: "pushes all
        layers' feature maps to the backing store after its last reuse
        during forward propagation").  A layer with no consumers is its
        own last consumer.
        """
        try:
            succs = self._adj()[2][name]
        except KeyError:
            raise self._unknown(name) from None
        return succs[-1] if succs else name

    @property
    def learned_layer_count(self) -> int:
        """Number of learned layers -- the paper's Table III layer count.

        Counts convolutional and fully-connected layers (the convention
        behind "AlexNet 8", "VGG-E 19", ...); batch-norm scale/shift
        parameters are not counted as layers.  Recurrent networks count
        each distinct cell (``weight_group``) once, not per timestep.
        """
        groups: set[str] = set()
        count = 0
        for layer in self.layers:
            if layer.kind in (LayerKind.CONV, LayerKind.FC):
                count += 1
            elif layer.is_recurrent and layer.weight_group:
                groups.add(layer.weight_group)
        return count + len(groups)

    def weight_bytes(self) -> int:
        """Total unique weight bytes (shared groups counted once)."""
        return self._sizes()[0]

    def feature_map_bytes(self, batch: int) -> int:
        """Total forward feature-map bytes at a batch size (all layers)."""
        check_batch(batch)
        return self._sizes()[1] * batch * FP32_BYTES

    def virtualized_bytes(self, batch: int) -> int:
        """Feature-map bytes subject to offload (cheap layers excluded)."""
        return sum(layer.out_bytes(batch) for layer in self.layers
                   if not layer.is_cheap and layer.kind is not LayerKind.INPUT)

    def training_footprint_bytes(self, batch: int) -> int:
        """Memory needed to train without virtualization: O(N) in depth.

        Counts weights, weight gradients, and every layer's forward
        feature map (all retained for the backward pass).
        """
        return 2 * self.weight_bytes() + self.feature_map_bytes(batch)

    def inference_footprint_bytes(self, batch: int) -> int:
        """Memory needed to run forward-only with resident weights.

        Forward-only execution retains no feature maps: a ping-pong
        pair of the largest activation buffers suffices, on top of the
        (unique) weights.
        """
        check_batch(batch)
        weights, _, peak = self._sizes()
        return weights + 2 * peak * batch * FP32_BYTES

    def fwd_macs(self, batch: int) -> int:
        return sum(layer.fwd_macs(batch) for layer in self.layers)

    def bwd_macs(self, batch: int) -> int:
        return sum(layer.bwd_macs(batch) for layer in self.layers)


@dataclass(frozen=True)
class NetworkSummary:
    """Headline statistics of a network at a batch size (for reports)."""

    name: str
    layer_count: int
    learned_layers: int
    weight_mbytes: float
    feature_map_mbytes: float
    footprint_mbytes: float
    fwd_gmacs: float

    @staticmethod
    def of(net: Network, batch: int) -> "NetworkSummary":
        return NetworkSummary(
            name=net.name,
            layer_count=len(net),
            learned_layers=net.learned_layer_count,
            weight_mbytes=net.weight_bytes() / (1024 * 1024),
            feature_map_mbytes=net.feature_map_bytes(batch) / (1024 * 1024),
            footprint_mbytes=net.training_footprint_bytes(batch) / (1024 * 1024),
            fwd_gmacs=net.fwd_macs(batch) / 1e9,
        )


def weight_owners(layers: Iterable[Layer]) -> Iterator[Layer]:
    """The layers among ``layers`` that own a weight buffer, in order.

    Every weighted layer owns its weights, except that layers sharing
    a ``weight_group`` (a recurrent cell's timesteps, a tied embedding
    and output head) share one buffer, owned by the group's first
    member.  Ownership is local to the layers passed: a group spanning
    two pipeline stages has an owner, and a buffer, in each.
    """
    seen: set[str] = set()
    for layer in layers:
        if not layer.weight_elems or layer.weight_group in seen:
            continue
        if layer.weight_group:
            seen.add(layer.weight_group)
        yield layer


def input_layer(name: str, elems: int) -> Layer:
    """Convenience constructor for the network input pseudo-layer."""
    return Layer(name=name, kind=LayerKind.INPUT, out_elems=elems)
