"""The record codec: each persisted record declares its fields once."""

import dataclasses
import json

import pytest

from repro.cluster.simulator import simulate_cluster
from repro.core.design_points import design_point
from repro.core.metrics import (ClusterStats, FaultStats, LatencyBreakdown,
                                PipelineStats, PrefetchStats, ServingStats,
                                SimulationResult)
from repro.core.simulator import simulate
from repro.records import record
from repro.scenarios.claims import at_least, evaluate_claims
from repro.scenarios.dsl import (DesignSpec, FleetSpec, Scenario,
                                 TrafficSpec, WorkloadSpec)
from repro.scenarios.verdict import Verdict
from repro.serving.server import simulate_serving
from repro.training.parallel import ParallelStrategy
from repro.units import TB

RECORDS = (LatencyBreakdown, PipelineStats, PrefetchStats, FaultStats,
           ServingStats, ClusterStats, SimulationResult, DesignSpec,
           WorkloadSpec, TrafficSpec, FleetSpec, Scenario, Verdict)


@pytest.fixture(scope="module")
def instances():
    """One instance of every record class, from real runs and the DSL."""
    staged = dataclasses.replace(design_point("MC-DLA(B)"),
                                 pipeline_stages=4,
                                 pipeline_schedule="zb-h1")
    pipeline = simulate(staged, "GPT2", 64, ParallelStrategy.PIPELINE)
    faulted = simulate(dataclasses.replace(design_point("DC-DLA"),
                                           fault_model="storm"),
                       "AlexNet", 256)
    serving = simulate_serving(design_point("MC-DLA(B)"), "GPT2",
                               rate=400.0, n_requests=64, seed=0,
                               slo=0.05)
    cluster = simulate_cluster(design_point("MC-DLA(B)"), n_jobs=6, seed=0)
    (verdict,) = evaluate_claims(
        (at_least("fast", "throughput", scenarios=("a",), bound=1.0),),
        lambda name: faulted)
    served = Scenario(
        name="serve",
        system=DesignSpec("mc-hbm", overrides=(("n_devices", 4),),
                          device_mix=(("Pascal", 2), ("Volta", 2)),
                          pim_fraction=0.25),
        workload=WorkloadSpec(network="GPT2", batch=64,
                              strategy="pipeline", schedule="zb-h1"),
        traffic=TrafficSpec(rate=800.0, batcher="continuous"),
        fault_model="storm", prefetch_policy="clairvoyant")
    fleet = FleetSpec(policy="sjf", n_jobs=8, pool_capacity=1 * TB,
                      preempt_after=30.0)
    return {
        LatencyBreakdown: pipeline.breakdown,
        PipelineStats: pipeline.pipeline,
        PrefetchStats: pipeline.prefetch,
        FaultStats: faulted.faults,
        ServingStats: serving.serving,
        ClusterStats: cluster.cluster,
        SimulationResult: pipeline,
        DesignSpec: served.system,
        WorkloadSpec: served.workload,
        TrafficSpec: served.traffic,
        FleetSpec: fleet,
        Scenario: served,
        Verdict: verdict,
    }


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_image_lists_fields_in_order_and_round_trips(instances, cls):
    value = instances[cls]
    data = value.to_dict()
    assert list(data) == [
        f.name for f in dataclasses.fields(cls)
        if not (f.metadata.get("omit_empty") and not getattr(value, f.name))]
    assert cls.from_dict(json.loads(json.dumps(data))) == value
    # Profilers wrap both by name on the class itself.
    assert "to_dict" in vars(cls)
    assert isinstance(vars(cls)["from_dict"], classmethod)


def test_unknown_key_is_rejected():
    with pytest.raises(TypeError, match="bogus"):
        LatencyBreakdown.from_dict(
            {"compute": 1.0, "sync": 0.0, "vmem": 0.0, "bogus": 0})


@pytest.mark.parametrize("annotation", [dict, int | str,
                                        tuple[int, LatencyBreakdown]])
def test_annotation_without_codec_is_rejected(annotation):
    with pytest.raises(TypeError, match="no JSON codec"):
        record(dataclasses.make_dataclass(
            "Bad", [("field", annotation)], frozen=True))
