"""Benchmark registry: Table III's eight applications plus extensions.

``BENCHMARK_NAMES`` stays exactly the paper's eight workloads (the
figures iterate it), while ``WORKLOAD_NAMES`` adds the transformer
family (:mod:`repro.dnn.models.transformer`) that post-dates the paper
-- every registered workload runs on all six design points.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from repro.dnn.graph import Network
from repro.dnn.models.alexnet import build_alexnet
from repro.dnn.models.googlenet import build_googlenet
from repro.dnn.models.resnet import build_resnet34
from repro.dnn.models.rnn import (build_rnn_gemv, build_rnn_gru,
                                  build_rnn_lstm1, build_rnn_lstm2)
from repro.dnn.models.transformer import (TRANSFORMER_SPECS,
                                          build_bert_large, build_gpt2,
                                          build_transformer_decode)
from repro.dnn.models.vgg import build_vgg_e


@dataclass(frozen=True)
class BenchmarkInfo:
    """One registered workload (Table III rows, plus extensions)."""

    name: str
    application: str
    detail: str      # "# of layers" for CNNs, "Timesteps" for RNNs, ...
    builder: Callable[[], Network]
    family: str      # "cnn" | "rnn" | "transformer"

    @property
    def is_cnn(self) -> bool:
        return self.family == "cnn"


#: The paper's Table III rows, in presentation order.
_BENCHMARKS: tuple[BenchmarkInfo, ...] = (
    BenchmarkInfo("AlexNet", "Image recognition", "8 layers",
                  build_alexnet, "cnn"),
    BenchmarkInfo("GoogLeNet", "Image recognition", "58 layers",
                  build_googlenet, "cnn"),
    BenchmarkInfo("VGG-E", "Image recognition", "19 layers",
                  build_vgg_e, "cnn"),
    BenchmarkInfo("ResNet", "Image recognition", "34 layers",
                  build_resnet34, "cnn"),
    BenchmarkInfo("RNN-GEMV", "Speech recognition", "50 timesteps",
                  build_rnn_gemv, "rnn"),
    BenchmarkInfo("RNN-LSTM-1", "Machine translation", "25 timesteps",
                  build_rnn_lstm1, "rnn"),
    BenchmarkInfo("RNN-LSTM-2", "Language modeling", "25 timesteps",
                  build_rnn_lstm2, "rnn"),
    BenchmarkInfo("RNN-GRU", "Speech recognition", "187 timesteps",
                  build_rnn_gru, "rnn"),
)

#: Post-paper extensions: the transformer workload family.
_TRANSFORMERS: tuple[BenchmarkInfo, ...] = (
    BenchmarkInfo("BERT-Large", "Language understanding", "24 blocks",
                  build_bert_large, "transformer"),
    BenchmarkInfo("GPT2", "Language modeling", "12 blocks",
                  build_gpt2, "transformer"),
)

_ALL: tuple[BenchmarkInfo, ...] = _BENCHMARKS + _TRANSFORMERS

#: Benchmark names in the paper's presentation order (Table III only).
BENCHMARK_NAMES: tuple[str, ...] = tuple(b.name for b in _BENCHMARKS)
CNN_NAMES: tuple[str, ...] = tuple(
    b.name for b in _BENCHMARKS if b.family == "cnn")
RNN_NAMES: tuple[str, ...] = tuple(
    b.name for b in _BENCHMARKS if b.family == "rnn")
TRANSFORMER_NAMES: tuple[str, ...] = tuple(b.name for b in _TRANSFORMERS)
#: Every registered workload: Table III plus the transformer family.
WORKLOAD_NAMES: tuple[str, ...] = tuple(b.name for b in _ALL)


def benchmark_info(name: str) -> BenchmarkInfo:
    """Look up a registered workload by name."""
    for info in _ALL:
        if info.name == name:
            return info
    raise KeyError(f"unknown benchmark {name!r}; "
                   f"known: {', '.join(WORKLOAD_NAMES)}")


@lru_cache(maxsize=None)
def build_network(name: str) -> Network:
    """Build (and cache) a registered network by name."""
    return benchmark_info(name).builder()


@lru_cache(maxsize=None)
def decode_network(name: str, context: int | None = None) -> Network:
    """The single-token decode-step variant of a transformer workload.

    Serving's continuous batcher prices per-step iteration time on
    these GEMV-class networks; non-transformer workloads have no
    decode phase and raise ``KeyError``.
    """
    if name not in TRANSFORMER_SPECS:
        raise KeyError(
            f"workload {name!r} has no decode-step variant; "
            f"transformers: {', '.join(TRANSFORMER_SPECS)}")
    return build_transformer_decode(TRANSFORMER_SPECS[name], context)


def all_benchmarks() -> list[BenchmarkInfo]:
    """The paper's eight Table III rows (extensions excluded)."""
    return list(_BENCHMARKS)
