"""Transformer benchmark networks: BERT-Large- and GPT-2-class models.

The paper's evaluation (Table III) predates the transformer era; these
builders extend the workload substrate with the models that stress
memory-centric designs hardest today: deep stacks of identical blocks
whose per-token activations dominate device memory and whose balanced,
repetitive structure is what makes pipeline parallelism
(:mod:`repro.pipeline`) effective.

Each encoder/decoder block lowers to the standard six GEMM sites (QKV
projection, the two batched attention GEMMs, the output projection, and
the two feed-forward projections) plus the cheap layernorm / GELU /
residual layers the migration policy recomputes.  The LM head shares
its weight buffer with the token embedding (weight tying) via
``weight_group``, exactly like recurrent cells share weights across
timesteps; its output is modeled as the per-token loss vector (fused
softmax-cross-entropy), not the materialized ``seq x vocab`` logits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn.graph import Network, input_layer
from repro.dnn.layers import Layer, LayerKind
from repro.dnn.shapes import (Gemm, attention_gemms,
                              decode_attention_gemms, token_fc_gemm)


@dataclass(frozen=True)
class TransformerSpec:
    """Configuration of a transformer-stack benchmark."""

    name: str
    blocks: int
    hidden: int
    heads: int
    seq: int
    vocab: int
    #: Feed-forward expansion factor (4x in BERT and GPT-2).
    ffn_mult: int = 4

    def __post_init__(self) -> None:
        if self.hidden % self.heads:
            raise ValueError(
                f"{self.name}: hidden ({self.hidden}) must divide "
                f"evenly across {self.heads} heads")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def embedding_elems(self) -> int:
        """Token table plus learned position embeddings."""
        return (self.vocab + self.seq) * self.hidden


#: The two evaluated configurations: a BERT-Large-class encoder
#: (24 x 1024, 16 heads, 340M-parameter class) and a GPT-2-class
#: decoder (12 x 768, 12 heads, 117M-parameter class).
TRANSFORMER_SPECS = {
    "BERT-Large": TransformerSpec("BERT-Large", blocks=24, hidden=1024,
                                  heads=16, seq=512, vocab=30522),
    "GPT2": TransformerSpec("GPT2", blocks=12, hidden=768,
                            heads=12, seq=1024, vocab=50257),
}


def _cheap(net: Network, name: str, kind: LayerKind, elems: int,
           inputs: list[str], weight_elems: int = 0,
           stream_mult: int = 2) -> str:
    net.add_layer(Layer(name=name, kind=kind, out_elems=elems,
                        weight_elems=weight_elems,
                        stream_elems=stream_mult * elems),
                  inputs=inputs)
    return name


def _projection(net: Network, name: str, rows: int, out_features: int,
                in_features: int, src: str) -> str:
    net.add_layer(
        Layer(name=name, kind=LayerKind.FC,
              out_elems=rows * out_features,
              weight_elems=in_features * out_features,
              gemms=(token_fc_gemm(rows, out_features, in_features),)),
        inputs=[src])
    return name


def _block(net: Network, spec: TransformerSpec, index: int, src: str,
           rows: int, attention: tuple[Gemm, ...]) -> str:
    """One pre-norm encoder/decoder block over ``rows`` token rows per
    sample, attending through ``attention``; returns its output
    layer."""
    h = spec.hidden
    sh = rows * h
    p = f"b{index}_"

    ln1 = _cheap(net, p + "ln1", LayerKind.LAYERNORM, sh, [src],
                 weight_elems=2 * h)
    qkv = _projection(net, p + "qkv", rows, 3 * h, h, ln1)
    attn = net.add_layer(
        Layer(name=p + "attn", kind=LayerKind.ATTENTION, out_elems=sh,
              gemms=attention),
        inputs=[qkv]).name
    proj = _projection(net, p + "proj", rows, h, h, attn)
    res1 = _cheap(net, p + "res1", LayerKind.ELTWISE, sh,
                  [src, proj], stream_mult=3)

    ln2 = _cheap(net, p + "ln2", LayerKind.LAYERNORM, sh, [res1],
                 weight_elems=2 * h)
    ffn1 = _projection(net, p + "ffn1", rows, spec.ffn_mult * h, h, ln2)
    gelu = _cheap(net, p + "gelu", LayerKind.GELU,
                  spec.ffn_mult * sh, [ffn1])
    ffn2 = _projection(net, p + "ffn2", rows, h, spec.ffn_mult * h, gelu)
    return _cheap(net, p + "res2", LayerKind.ELTWISE, sh,
                  [res1, ffn2], stream_mult=3)


def _stack(net: Network, spec: TransformerSpec, rows: int,
           attention: tuple[Gemm, ...], source: str,
           tie_group: str) -> Network:
    """Fill ``net`` with ``spec``'s embedding, blocks and tied LM head
    over ``rows`` token rows per sample, fed by the input layer
    ``source``."""
    h = spec.hidden
    net.add_layer(input_layer(source, rows))
    net.add_layer(
        Layer(name="embed", kind=LayerKind.EMBEDDING,
              out_elems=rows * h,
              weight_elems=spec.embedding_elems,
              stream_elems=2 * rows * h,
              weight_group=tie_group),
        inputs=[source])

    out = "embed"
    for index in range(spec.blocks):
        out = _block(net, spec, index, out, rows, attention)

    final = _cheap(net, "ln_f", LayerKind.LAYERNORM, rows * h, [out],
                   weight_elems=2 * h)
    # Tied LM head: the vocab-projection GEMM runs against the shared
    # embedding table; the fused softmax-cross-entropy emits one loss
    # element per token rather than materializing the logits.
    net.add_layer(
        Layer(name="lm_head", kind=LayerKind.FC, out_elems=rows,
              weight_elems=spec.embedding_elems,
              gemms=(token_fc_gemm(rows, spec.vocab, h),),
              weight_group=tie_group),
        inputs=[final])

    net.validate()
    return net


def build_transformer(spec: TransformerSpec) -> Network:
    """Build ``spec`` as a DAG: embedding, blocks, tied LM head."""
    return _stack(Network(spec.name), spec, spec.seq,
                  attention_gemms(spec.seq, spec.heads, spec.head_dim),
                  "tokens", f"{spec.name}_embed")


def build_transformer_decode(spec: TransformerSpec,
                             context: int | None = None) -> Network:
    """One autoregressive decode step of ``spec`` as a DAG.

    A single query token runs through every block, attending over
    ``context`` cached KV entries (default: the full ``spec.seq``
    window).  Projections collapse to per-token GEMVs and attention to
    :func:`~repro.dnn.shapes.decode_attention_gemms`; the weight
    matrices are unchanged, which is exactly why serving decode traffic
    is weight-bandwidth-bound.  Used by the continuous batcher of
    :mod:`repro.serving` to price per-step iteration latency.
    """
    ctx = spec.seq if context is None else context
    if ctx <= 0:
        raise ValueError("decode context must be positive")
    return _stack(Network(f"{spec.name}-decode"), spec, 1,
                  decode_attention_gemms(ctx, spec.heads, spec.head_dim),
                  "token", f"{spec.name}_decode_embed")


def build_bert_large() -> Network:
    return build_transformer(TRANSFORMER_SPECS["BERT-Large"])


def build_gpt2() -> Network:
    return build_transformer(TRANSFORMER_SPECS["GPT2"])
