"""Layer descriptors for the DNN workload substrate.

A :class:`Layer` captures everything the system simulator needs to know
about one network layer:

* its forward arithmetic, lowered to GEMMs (:mod:`repro.dnn.shapes`) or an
  element-wise streaming pass,
* the size of its output feature map (per sample), which is what the
  memory virtualization runtime migrates between memory tiers, and
* its weight footprint, which is what data-parallel training synchronizes
  (the ``dW`` all-reduce) and model-parallel training partitions.

Layers are intentionally framework-agnostic value objects; the training
semantics (forward/backward expansion, synchronization sizing) live in
:mod:`repro.training`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dnn.shapes import Gemm, grad_gemms
from repro.enums import Enum
from repro.units import FP32_BYTES


class LayerKind(Enum):
    """Taxonomy of layer types used across the benchmark families."""

    INPUT = "input"
    CONV = "conv"
    FC = "fc"
    POOL = "pool"
    ACT = "act"
    LRN = "lrn"
    BATCHNORM = "batchnorm"
    CONCAT = "concat"
    ELTWISE = "eltwise"
    SOFTMAX = "softmax"
    DROPOUT = "dropout"
    RNN_CELL = "rnn_cell"
    LSTM_CELL = "lstm_cell"
    GRU_CELL = "gru_cell"
    # -- Transformer family ------------------------------------------
    EMBEDDING = "embedding"
    ATTENTION = "attention"
    LAYERNORM = "layernorm"
    GELU = "gelu"


#: Layers whose forward pass is so cheap that the runtime memory manager
#: re-computes their outputs during backpropagation instead of migrating
#: them to the backing store (the MXNet-style optimization the paper
#: adopts in Section IV, footnote 4).
CHEAP_KINDS = frozenset({
    LayerKind.POOL,
    LayerKind.ACT,
    LayerKind.LRN,
    LayerKind.BATCHNORM,
    LayerKind.CONCAT,
    LayerKind.ELTWISE,
    LayerKind.SOFTMAX,
    LayerKind.DROPOUT,
    LayerKind.LAYERNORM,
    LayerKind.GELU,
})

#: Layers that hold trainable weights.
WEIGHTED_KINDS = frozenset({
    LayerKind.CONV,
    LayerKind.FC,
    LayerKind.BATCHNORM,
    LayerKind.RNN_CELL,
    LayerKind.LSTM_CELL,
    LayerKind.GRU_CELL,
    LayerKind.EMBEDDING,
    LayerKind.LAYERNORM,
})

#: Recurrent cell kinds (share weights across timesteps).
RECURRENT_KINDS = frozenset({
    LayerKind.RNN_CELL,
    LayerKind.LSTM_CELL,
    LayerKind.GRU_CELL,
})


@dataclass(frozen=True)
class Layer:
    """One layer of a DNN, sized per training sample.

    Attributes:
        name: Unique name within its network.
        kind: The :class:`LayerKind` taxonomy entry.
        out_elems: Output feature-map elements *per sample*.  For
            recurrent cells this is the per-timestep state that must be
            retained for backpropagation-through-time (hidden state, and
            the cell state for LSTMs).
        weight_elems: Trainable parameter count.  Recurrent cells report
            the full cell weights; weight *sharing* across timesteps is
            resolved by :func:`repro.dnn.graph.weight_owners` via
            ``weight_group``.
        gemms: Forward-pass GEMMs.  Empty for element-wise layers.
        stream_elems: Elements touched per sample by an element-wise
            forward pass (read + write), used for memory-bound timing of
            layers without GEMMs.
        weight_group: Layers sharing this non-empty key share one physical
            weight buffer (recurrent cells across timesteps, a tied
            embedding and output head).
    """

    name: str
    kind: LayerKind
    out_elems: int
    weight_elems: int = 0
    gemms: tuple[Gemm, ...] = field(default_factory=tuple)
    stream_elems: int = 0
    weight_group: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if self.out_elems < 0 or self.weight_elems < 0 or self.stream_elems < 0:
            raise ValueError(f"negative size in layer {self.name}")
        if self.weight_elems and self.kind not in WEIGHTED_KINDS:
            raise ValueError(
                f"layer {self.name}: kind {self.kind} cannot carry weights")

    # -- Derived sizes ----------------------------------------------------

    @property
    def is_cheap(self) -> bool:
        """True when the backward pass recomputes this layer's output."""
        return self.kind in CHEAP_KINDS

    @property
    def is_recurrent(self) -> bool:
        return self.kind in RECURRENT_KINDS

    @property
    def weight_bytes(self) -> int:
        return self.weight_elems * FP32_BYTES

    def out_bytes(self, batch: int) -> int:
        """Output feature-map bytes at a given batch size."""
        check_batch(batch)
        return self.out_elems * batch * FP32_BYTES

    def fwd_macs(self, batch: int) -> int:
        """Forward multiply-accumulate count at a given batch size."""
        check_batch(batch)
        return sum(g.at_batch(batch).macs for g in self.gemms)

    def bwd_macs(self, batch: int) -> int:
        """Backward MACs: the dX and dW GEMMs each match forward work."""
        return 2 * self.fwd_macs(batch)

    def fwd_gemms(self, batch: int) -> list[Gemm]:
        """Concrete forward GEMMs at a given batch size."""
        check_batch(batch)
        return [g.at_batch(batch) for g in self.gemms]

    def bwd_gemms(self, batch: int) -> tuple[Gemm, ...]:
        """Concrete backward GEMMs: the (dX, dW) pair of each forward
        GEMM (see :func:`~repro.dnn.shapes.grad_gemms`)."""
        return grad_gemms(self.fwd_gemms(batch))

    def fwd_stream_bytes(self, batch: int) -> int:
        """Bytes streamed by an element-wise forward pass."""
        check_batch(batch)
        return self.stream_elems * batch * FP32_BYTES


def check_batch(batch: int) -> None:
    """Reject a batch size that is not positive."""
    if batch <= 0:
        raise ValueError("batch must be positive")
