"""Hypothesis property tests: DSL round-trips and fingerprints.

Three invariants the claims engine leans on: parse -> serialize ->
parse is the identity, fingerprints are stable across interpreter
processes (and hash seeds), and distinct scenarios never share one.
"""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FAULT_MODEL_ORDER
from repro.scenarios.dsl import (DesignSpec, FleetSpec, Scenario,
                                 TrafficSpec, WorkloadSpec)
from repro.scenarios.paper import paper_suite
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER

SRC = str(Path(__file__).resolve().parent.parent / "src")

designs = st.sampled_from(["DC-DLA", "HC-DLA", "MC-DLA(S)",
                           "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"])
networks = st.sampled_from(["AlexNet", "VGG-E", "RNN-LSTM-1", "GPT2"])
generations = st.sampled_from(["Kepler", "Maxwell", "Pascal", "Volta"])


@st.composite
def device_mixes(draw):
    names = draw(st.lists(generations, unique=True, max_size=3))
    return tuple((name, draw(st.integers(1, 8))) for name in names)


@st.composite
def design_specs(draw):
    return DesignSpec(
        design=draw(designs),
        overrides=draw(st.sampled_from(
            [(), (("n_devices", 4),), (("compression", 2.0),)])),
        device_mix=draw(device_mixes()),
        pim_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])))


@st.composite
def workload_specs(draw):
    strategy = draw(st.sampled_from(["data", "model", "pipeline"]))
    return WorkloadSpec(
        network=draw(networks),
        batch=draw(st.sampled_from([32, 64, 256, 512])),
        strategy=strategy,
        microbatches=draw(st.sampled_from([2, 4, 8])),
        schedule=draw(st.sampled_from(["gpipe", "1f1b"])))


@st.composite
def traffic_specs(draw):
    return TrafficSpec(
        rate=draw(st.sampled_from([50.0, 400.0, 1600.0])),
        n_requests=draw(st.sampled_from([64, 512])),
        seed=draw(st.integers(0, 3)),
        slo_ms=draw(st.sampled_from([10.0, 50.0])),
        batcher=draw(st.sampled_from(["dynamic", "continuous"])))


@st.composite
def fleet_specs(draw):
    return FleetSpec(
        policy=draw(st.sampled_from(["fifo", "sjf", "srpt"])),
        n_jobs=draw(st.sampled_from([5, 20])),
        seed=draw(st.integers(0, 3)),
        oversubscription=draw(st.sampled_from([1.0, 1.5])))


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(["training", "serving", "cluster"]))
    name = draw(st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-/.",
        min_size=1, max_size=24).filter(str.strip))
    kwargs = {
        "name": name,
        "system": draw(design_specs()),
        "fault_model": draw(st.sampled_from(FAULT_MODEL_ORDER)),
        "prefetch_policy": draw(st.sampled_from(
            (None,) + PREFETCH_POLICY_ORDER)),
    }
    if mode == "cluster":
        kwargs["fleet"] = draw(fleet_specs())
    else:
        kwargs["workload"] = draw(workload_specs())
        if mode == "serving":
            kwargs["traffic"] = draw(traffic_specs())
    return Scenario(**kwargs)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_parse_serialize_parse_is_identity(self, scenario):
        data = scenario.to_dict()
        rebuilt = Scenario.from_dict(data)
        assert rebuilt == scenario
        assert rebuilt.to_dict() == data
        assert Scenario.from_dict(rebuilt.to_dict()) == rebuilt

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_fingerprint_survives_the_round_trip(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()).fingerprint() \
            == scenario.fingerprint()


class TestNoCollisions:
    @settings(max_examples=40, deadline=None)
    @given(scenarios(), scenarios())
    def test_distinct_scenarios_distinct_fingerprints(self, a, b):
        if a == b:
            assert a.fingerprint() == b.fingerprint()
        else:
            assert a.fingerprint() != b.fingerprint()


class TestCrossProcessStability:
    """Fingerprints are content hashes, not ``hash()`` artifacts: a
    fresh interpreter with a different ``PYTHONHASHSEED`` reproduces
    them bit for bit."""

    PROGRAM = """
from repro.scenarios.paper import paper_suite
for s in paper_suite(quick=True).scenarios:
    print(s.fingerprint(), s.name)
"""

    def _fingerprints(self, hash_seed: str) -> str:
        result = subprocess.run(
            [sys.executable, "-B", "-c", self.PROGRAM],
            capture_output=True, text=True, timeout=600,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": hash_seed})
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_stable_across_hash_seeds(self):
        first = self._fingerprints("0")
        second = self._fingerprints("424242")
        assert first == second
        assert len(first.strip().splitlines()) \
            == len(paper_suite(quick=True).scenarios)
