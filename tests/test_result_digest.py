"""Full-result digest golden: one sha256 per simulated cell.

The figure goldens pin a handful of scalars per experiment; this one
pins *every* field of ``SimulationResult.to_dict()`` for 148 cells
spanning each mode the simulator runs: the paper's 6x8x2 grid and a
model-parallel inference cell per design, plus inference under every
prefetch policy, five pipeline schedules, four prefetch policies on
training and on a pipeline, three fault models, serving, and cluster
cells on a device-centric and a memory-centric design.  Any change to
any reported number changes a hash, so refactors of the simulator's
internals must leave this file untouched.

Floats are rounded to 12 significant digits before hashing: Python
3.12's ``sum()`` compensates rounding error, so a few sums differ from
older interpreters in the last ulp.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.cluster.simulator import simulate_cluster
from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import ExecutionMode
from repro.core.simulator import simulate
from repro.dnn.registry import BENCHMARK_NAMES
from repro.serving.server import simulate_serving
from repro.training.parallel import ParallelStrategy

MODE_DESIGNS = ("DC-DLA", "MC-DLA(B)")
PIPELINE_KINDS = ("gpipe", "1f1b", "zb-h1", "interleaved", "zb-auto")
PREFETCH_POLICIES = ("next-op", "stride", "cost-model", "clairvoyant")
FAULT_MODELS = ("flaky-link", "storm", "node-loss")


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def result_digest(result) -> str:
    """sha256 of the result's rounded, key-sorted JSON encoding."""
    text = json.dumps(_rounded(result.to_dict()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_cells():
    """Cell name -> zero-argument callable returning its result."""
    cells = {}
    for design in DESIGN_ORDER:
        config = design_point(design)
        for network in BENCHMARK_NAMES:
            for strategy in (ParallelStrategy.DATA, ParallelStrategy.MODEL):
                cells[f"grid/{design}/{network}/{strategy.value}"] = (
                    lambda c=config, n=network, s=strategy:
                    simulate(c, n, 512, s))
        cells[f"inference/{design}/VGG-E/model"] = (
            lambda c=config: simulate(c, "VGG-E", 8, ParallelStrategy.MODEL,
                                      mode=ExecutionMode.INFERENCE))
    for design in MODE_DESIGNS:
        config = design_point(design)
        cells[f"inference/{design}/ResNet"] = (
            lambda c=config: simulate(c, "ResNet", 64,
                                      mode=ExecutionMode.INFERENCE))
        for policy in PREFETCH_POLICIES:
            prefetching = dataclasses.replace(config, prefetch_policy=policy)
            cells[f"inference/{design}/GPT2/{policy}"] = (
                lambda c=prefetching: simulate(
                    c, "GPT2", 8, mode=ExecutionMode.INFERENCE))
        for kind in PIPELINE_KINDS:
            staged = dataclasses.replace(config, pipeline_stages=4,
                                         pipeline_schedule=kind)
            cells[f"pipeline/{design}/GPT2/{kind}"] = (
                lambda c=staged: simulate(c, "GPT2", 64,
                                          ParallelStrategy.PIPELINE))
        for policy in PREFETCH_POLICIES:
            prefetching = dataclasses.replace(config, prefetch_policy=policy)
            cells[f"prefetch/{design}/GoogLeNet/{policy}"] = (
                lambda c=prefetching: simulate(c, "GoogLeNet", 128))
            # A two-deep stash makes stride evict and re-fetch stashes.
            staged = dataclasses.replace(
                prefetching, pipeline_stages=4, pipeline_schedule="gpipe",
                prefetch_stash=2)
            cells[f"pipeline-prefetch/{design}/GPT2/{policy}"] = (
                lambda c=staged: simulate(c, "GPT2", 64,
                                          ParallelStrategy.PIPELINE))
        for fault in FAULT_MODELS:
            faulted = dataclasses.replace(config, fault_model=fault)
            cells[f"faults/{design}/VGG-E/{fault}"] = (
                lambda c=faulted: simulate(c, "VGG-E", 64))
        cells[f"serving/{design}/ResNet"] = (
            lambda c=config: simulate_serving(
                c, "ResNet", rate=200.0, n_requests=64, seed=7,
                max_batch=16))
        cells[f"cluster/{design}/fifo"] = (
            lambda c=config: simulate_cluster(c, policy="fifo", n_jobs=8,
                                              seed=7))
    return cells


def test_result_digest_golden(golden):
    digests = {name: result_digest(run())
               for name, run in digest_cells().items()}
    golden.check("result_digest", digests)
