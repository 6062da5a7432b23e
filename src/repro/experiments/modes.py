"""The four execution modes the prefetch and fault studies share.

Both studies cross one :class:`~repro.scenarios.dsl.Scenario` field --
``prefetch_policy`` or ``fault_model`` -- with all six designs in four
execution modes, each one fixed cell shape:

* **training**: one data-parallel VGG-E iteration at batch 512;
* **pipeline**: a GPT2 1F1B pipeline at batch 64;
* **serving**: a GPT2 dynamic-batching tenant at 800 req/s over 128
  requests;
* **cluster**: 12 balanced-mix jobs arriving at 0.05 jobs/s, at 1.5x
  oversubscription of a 1 TiB pool.

Every other field takes its spec default.  The cells run through
:func:`repro.scenarios.runner.run_study`, the same lowering the claims
suite uses, so a study cell and the identical claims cell share one
cache entry.
"""

from __future__ import annotations

import json

from repro.core.design_points import DESIGN_ORDER
from repro.scenarios.dsl import (DesignSpec, FleetSpec, Scenario,
                                 TrafficSpec, WorkloadSpec)
from repro.scenarios.runner import run_study
from repro.units import TB

MODES = ("training", "pipeline", "serving", "cluster")

DEFAULT_TRAINING_NETWORK = "VGG-E"
DEFAULT_TRAINING_BATCH = 512
DEFAULT_PIPELINE_NETWORK = "GPT2"
DEFAULT_PIPELINE_BATCH = 64
DEFAULT_SERVING_NETWORK = "GPT2"
DEFAULT_SERVING_RATE = 800.0
DEFAULT_SERVING_REQUESTS = 128
DEFAULT_CLUSTER_JOBS = 12
DEFAULT_CLUSTER_ARRIVAL_RATE = 0.05
DEFAULT_CLUSTER_POOL = 1 * TB


def _mode_fields(mode: str, cluster_jobs: int,
                 training_network: str) -> dict:
    """The Scenario fields every cell of one mode shares."""
    if mode == "training":
        return {"workload": WorkloadSpec(
            training_network, batch=DEFAULT_TRAINING_BATCH)}
    if mode == "pipeline":
        return {"workload": WorkloadSpec(
            DEFAULT_PIPELINE_NETWORK, batch=DEFAULT_PIPELINE_BATCH,
            strategy="pipeline")}
    if mode == "serving":
        return {"workload": WorkloadSpec(DEFAULT_SERVING_NETWORK),
                "traffic": TrafficSpec(
                    rate=DEFAULT_SERVING_RATE,
                    n_requests=DEFAULT_SERVING_REQUESTS)}
    if mode == "cluster":
        # Oversubscribed so jobs spill: the prefetch policy's exposure
        # prices, and a pool-node loss has reservations to squeeze.
        return {"fleet": FleetSpec(
            n_jobs=cluster_jobs,
            arrival_rate=DEFAULT_CLUSTER_ARRIVAL_RATE,
            oversubscription=1.5, pool_capacity=DEFAULT_CLUSTER_POOL)}
    raise ValueError(f"unknown mode {mode!r}; "
                     f"known: {', '.join(MODES)}")


def mode_scenarios(axis: str, values, modes=MODES,
                   cluster_jobs: int = DEFAULT_CLUSTER_JOBS,
                   training_network: str = DEFAULT_TRAINING_NETWORK) \
        -> dict[tuple[str, str, str], Scenario]:
    """A study's ``(mode, design, value)`` cells, mode-major; each
    value sets the Scenario field named ``axis``."""
    shared = {mode: _mode_fields(mode, cluster_jobs, training_network)
              for mode in modes}
    return {
        (mode, design, value): Scenario(
            name=f"{mode}/{design}/{value}", system=DesignSpec(design),
            **{axis: value}, **shared[mode])
        for mode in modes for value in values for design in DESIGN_ORDER
    }


def run_mode_study(study, axis: str, values, modes, cluster_jobs: int,
                   training_network: str, jobs: int, cache):
    """Simulate a four-mode study: ``study(values, modes, results)``
    with ``results`` keyed ``(mode, design, value)``."""
    results = run_study(
        mode_scenarios(axis, values, modes, cluster_jobs,
                       training_network),
        jobs=jobs, cache=cache)
    return study(tuple(values), tuple(modes), results)


def scalars_json(study) -> str:
    """The study's scalars as deterministic, sorted JSON."""
    return json.dumps(study.scalars(), indent=2, sort_keys=True)
