"""Shape descriptors used to lower DNN layers onto the accelerator.

Every layer's arithmetic is expressed as one or more GEMM operations (the
device model of the paper optimizes "generic GEMM", Section IV) or as an
element-wise streaming pass for layers with negligible arithmetic
intensity (activations, pooling, normalization, ...).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class Gemm:
    """A single M x K @ K x N matrix multiplication.

    ``m_per_sample`` is True when the M dimension scales with the training
    batch size (convolutions lower each sample's output positions into
    rows; fully-connected and recurrent layers contribute one row per
    sample).

    ``a_reuse``/``c_reuse`` capture operand duplication introduced by
    im2col lowering: a convolution's [M x K] activation matrix repeats
    each input element ``kernel_elems`` times, but the physical feature
    map is streamed from memory only once, so its DRAM traffic is
    ``M*K / a_reuse`` (and symmetrically ``M*N / c_reuse`` for gradient
    GEMMs whose *output* is an im2col'd tensor).
    """

    m: int
    n: int
    k: int
    m_per_sample: bool = False
    a_reuse: int = 1
    c_reuse: int = 1

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ValueError(f"GEMM dimensions must be positive: {self}")
        if self.a_reuse < 1 or self.c_reuse < 1:
            raise ValueError(f"reuse factors must be >= 1: {self}")

    def at_batch(self, batch: int) -> "Gemm":
        """Resolve the batch-dependent M dimension for a concrete batch."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        m = self.m * batch if self.m_per_sample else self.m
        return Gemm(m, self.n, self.k, m_per_sample=False,
                    a_reuse=self.a_reuse, c_reuse=self.c_reuse)

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of this GEMM."""
        return self.m * self.n * self.k

    @property
    def traffic_elems(self) -> int:
        """Memory elements streamed: A and B read once (im2col
        duplication removed), C written once."""
        return (self.m * self.k // self.a_reuse + self.k * self.n
                + self.m * self.n // self.c_reuse)

    @property
    def operand_elems(self) -> int:
        """Logical matrix elements (duplication included)."""
        return self.m * self.k + self.k * self.n + self.m * self.n


def grad_gemms(fwd: Iterable[Gemm]) -> tuple[Gemm, ...]:
    """The backward GEMMs of forward GEMMs ``fwd``: one (dX, dW) pair
    per forward GEMM, in order.

    For a forward GEMM ``[M,K]x[K,N]`` the backward pass computes
    ``dX = dY.Wt`` (``[M,N]x[N,K]``) and ``dW = Xt.dY``
    (``[K,M]x[M,N]``); both match the forward MAC count.  The im2col
    duplication moves with the activation operand: dX's *output* and
    dW's *input* are the duplicated matrices.
    """
    grads: list[Gemm] = []
    for g in fwd:
        grads.append(Gemm(g.m, g.k, g.n, c_reuse=g.a_reuse))   # dX
        grads.append(Gemm(g.k, g.n, g.m, a_reuse=g.a_reuse))   # dW
    return tuple(grads)


def conv_gemm(out_positions: int, out_channels: int,
              in_channels: int, kernel_elems: int) -> Gemm:
    """Lower a convolution to its im2col GEMM (per-sample M)."""
    return Gemm(m=out_positions, n=out_channels,
                k=in_channels * kernel_elems, m_per_sample=True,
                a_reuse=kernel_elems)


def fc_gemm(out_features: int, in_features: int) -> Gemm:
    """Lower a fully-connected layer: one output row per sample."""
    return Gemm(m=1, n=out_features, k=in_features, m_per_sample=True)


def rnn_gemm(gate_features: int, in_features: int) -> Gemm:
    """Lower one recurrent-cell matrix product: one row per sample."""
    return Gemm(m=1, n=gate_features, k=in_features, m_per_sample=True)


def token_fc_gemm(seq: int, out_features: int, in_features: int) -> Gemm:
    """Lower a position-wise (token-level) projection of a transformer.

    Unlike :func:`fc_gemm`, every token of the sequence contributes one
    output row, so M scales with ``seq * batch``.
    """
    return Gemm(m=seq, n=out_features, k=in_features, m_per_sample=True)


def decode_attention_gemms(context: int, heads: int,
                           head_dim: int) -> tuple[Gemm, Gemm]:
    """Lower one autoregressive decode step's attention GEMMs.

    A single query token attends over ``context`` cached KV entries:
    the score GEMM is ``[heads x d] @ [d x context]`` and the context
    GEMM ``[heads x context] @ [context x d]`` per sample -- GEMV-class
    shapes whose arithmetic intensity is far below the prefill
    (:func:`attention_gemms`) and which therefore lean on memory
    bandwidth, the serving-era memory wall.
    """
    score = Gemm(m=heads, n=context, k=head_dim, m_per_sample=True)
    ctx = Gemm(m=heads, n=head_dim, k=context, m_per_sample=True)
    return score, ctx


def attention_gemms(seq: int, heads: int, head_dim: int) -> tuple[Gemm,
                                                                  Gemm]:
    """Lower multi-head self-attention's two batched GEMMs.

    Per head and sample: the *score* GEMM ``Q.Kt`` ([seq x d] @
    [d x seq]) and the *context* GEMM ``P.V`` ([seq x seq] @ [seq x d]).
    Heads batch along M (``m = seq * heads`` rows per sample), so both
    MAC counts scale as ``batch * heads * seq^2 * head_dim`` -- the
    quadratic-in-sequence term that distinguishes attention from the
    projection GEMMs.
    """
    score = Gemm(m=seq * heads, n=seq, k=head_dim, m_per_sample=True)
    context = Gemm(m=seq * heads, n=head_dim, k=seq, m_per_sample=True)
    return score, context
