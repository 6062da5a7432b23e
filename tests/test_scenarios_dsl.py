"""Unit tests: the scenario DSL and its lowering onto campaign points."""

import inspect

import pytest

from repro.accelerator.generations import TPUV2
from repro.campaign.points import canonical_fingerprint
from repro.cluster.simulator import simulate_cluster
from repro.core.design_points import design_point
from repro.interconnect.link import PCIE_GEN4
from repro.scenarios.dsl import (DesignSpec, FleetSpec, Scenario,
                                 TrafficSpec, WorkloadSpec)
from repro.scenarios.lowering import (PIM_INTERNAL_AMPLIFICATION,
                                      composite_device, lower_scenario,
                                      pim_bandwidth_scale,
                                      scenario_design_point, with_pim)
from repro.scenarios.paper import paper_suite
from repro.training.parallel import ParallelStrategy
from repro.units import TB


def _training(name="s", design="mc-hbm", network="AlexNet", **kwargs):
    return Scenario(name=name, system=DesignSpec(design),
                    workload=WorkloadSpec(network=network), **kwargs)


class TestDesignSpec:
    def test_resolves_aliases(self):
        assert DesignSpec("mc-hbm").design == "MC-DLA(B)"
        assert DesignSpec("oracle").design == "DC-DLA(O)"

    def test_unknown_design_raises(self):
        with pytest.raises(KeyError, match="unknown design"):
            DesignSpec("TPU-pod")

    def test_overrides_sorted_and_scalar_only(self):
        spec = DesignSpec("dc", overrides=(("n_devices", 4),
                                           ("compression", 2.0)))
        assert spec.overrides == (("compression", 2.0),
                                  ("n_devices", 4))
        with pytest.raises(ValueError, match="JSON scalar"):
            DesignSpec("dc", overrides=(("device", object()),))

    def test_spec_overrides_name_their_spec(self):
        spec = DesignSpec("dc", overrides=(("pcie", "PCIe-Gen4-x16"),
                                           ("device", "tpuv2")))
        assert spec.overrides == (("device", "TPUv2"),
                                  ("pcie", "pcie-gen4-x16"))
        built = scenario_design_point(spec.design, **dict(spec.overrides))
        assert built == design_point("DC-DLA", pcie=PCIE_GEN4,
                                     device=TPUV2)

    @pytest.mark.parametrize("key, name, known", [
        ("pcie", "pcie-gen5-x16", "pcie-gen4-x16"),
        ("link", "nvlink9", "nvlink2"),
        ("device", "H100", "TPUv2"),
    ])
    def test_unknown_spec_name_raises(self, key, name, known):
        with pytest.raises(KeyError) as info:
            DesignSpec("dc", overrides=((key, name),))
        message = info.value.args[0]
        assert f"unknown {key} {name!r}" in message
        assert "known: " in message and known in message

    def test_device_mix_canonicalized(self):
        spec = DesignSpec("mc-hbm",
                          device_mix=(("volta", 4), ("pascal", 4)))
        assert spec.device_mix == (("Pascal", 4), ("Volta", 4))

    def test_device_mix_rejects_duplicates_and_bad_counts(self):
        with pytest.raises(ValueError, match="repeats"):
            DesignSpec("mc-hbm",
                       device_mix=(("Volta", 4), ("volta", 4)))
        with pytest.raises(ValueError, match="positive"):
            DesignSpec("mc-hbm", device_mix=(("Volta", 0),))
        with pytest.raises(KeyError, match="unknown generation"):
            DesignSpec("mc-hbm", device_mix=(("Ampere", 8),))

    def test_pim_fraction_bounds(self):
        with pytest.raises(ValueError, match="pim_fraction"):
            DesignSpec("mc-hbm", pim_fraction=1.0)
        with pytest.raises(ValueError, match="pim_fraction"):
            DesignSpec("mc-hbm", pim_fraction=-0.1)


class TestScenarioValidation:
    def test_workload_names_resolve(self):
        s = _training(network="bert")
        assert s.workload.network == "BERT-Large"

    def test_fault_aliases_resolve(self):
        assert _training(fault_model="flaky").fault_model \
            == "flaky-link"
        assert _training(fault_model="healthy").fault_model == "none"

    def test_traffic_and_fleet_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Scenario(name="s", system=DesignSpec("dc"),
                     workload=WorkloadSpec(network="GPT2"),
                     traffic=TrafficSpec(), fleet=FleetSpec())

    def test_fleet_excludes_workload(self):
        with pytest.raises(ValueError, match="own job"):
            Scenario(name="s", system=DesignSpec("dc"),
                     workload=WorkloadSpec(network="AlexNet"),
                     fleet=FleetSpec())

    def test_needs_workload_or_fleet(self):
        with pytest.raises(ValueError, match="needs a workload"):
            Scenario(name="s", system=DesignSpec("dc"))

    def test_pipeline_batch_must_divide_into_microbatches(self):
        with pytest.raises(ValueError, match="not divisible"):
            WorkloadSpec(network="GPT2", batch=3, strategy="pipeline")
        assert WorkloadSpec(network="GPT2", batch=3).batch == 3

    def test_unknown_prefetch_policy(self):
        with pytest.raises(ValueError, match="prefetch"):
            _training(prefetch_policy="psychic")

    def test_mode(self):
        assert _training().mode == "training"
        assert Scenario(name="s", system=DesignSpec("dc"),
                        workload=WorkloadSpec(network="GPT2"),
                        traffic=TrafficSpec()).mode == "serving"
        assert Scenario(name="s", system=DesignSpec("dc"),
                        fleet=FleetSpec()).mode == "cluster"


class TestRoundTrip:
    SCENARIOS = [
        _training(),
        _training(fault_model="storm", prefetch_policy="clairvoyant"),
        Scenario(name="hetero",
                 system=DesignSpec("mc-hbm", pim_fraction=0.25,
                                   device_mix=(("Pascal", 4),
                                               ("Volta", 4))),
                 workload=WorkloadSpec(network="VGG-E", batch=256,
                                       strategy="pipeline",
                                       microbatches=4,
                                       schedule="gpipe")),
        Scenario(name="serve", system=DesignSpec("dc"),
                 workload=WorkloadSpec(network="GPT2"),
                 traffic=TrafficSpec(rate=800.0, batcher="continuous",
                                     max_wait_ms=0.0)),
        Scenario(name="fleet",
                 system=DesignSpec("mc-s", overrides=(("n_devices", 4),)),
                 fleet=FleetSpec(policy="sjf", n_jobs=8,
                                 pool_capacity=1 * TB,
                                 preempt_after=30.0)),
    ]

    @pytest.mark.parametrize("scenario", SCENARIOS,
                             ids=lambda s: s.name)
    def test_to_from_dict_exact(self, scenario):
        data = scenario.to_dict()
        rebuilt = Scenario.from_dict(data)
        assert rebuilt == scenario
        assert rebuilt.to_dict() == data

    def test_missing_keys_take_defaults(self):
        data = {"name": "x", "system": {"design": "dc"},
                "workload": {"network": "VGG-E"}}
        assert Scenario.from_dict(data) == Scenario(
            "x", DesignSpec("dc"), WorkloadSpec("VGG-E"))

    def test_fingerprint_distinguishes_every_field(self):
        base = _training()
        assert base.fingerprint() == _training().fingerprint()
        for other in (_training(network="VGG-E"),
                      _training(design="dc"),
                      _training(fault_model="storm"),
                      _training(prefetch_policy="stride"),
                      *self.SCENARIOS[2:]):
            assert other.fingerprint() != base.fingerprint()

    def test_fingerprint_matches_canonical_image(self):
        s = _training()
        assert s.fingerprint() == canonical_fingerprint(s)

    def test_paper_suite_fingerprints_are_pinned(self, golden):
        # render_json publishes these; they must not move.
        golden.check("scenario_fingerprints",
                     {s.name: s.fingerprint()
                      for s in paper_suite().scenarios})


class TestLowering:
    def test_training_point(self):
        point = lower_scenario(_training(name="cell"))
        assert point.label == "cell"
        assert point.key == ("cell", "AlexNet", 512,
                             ParallelStrategy.DATA)
        assert point.build_config(scenario_design_point).name \
            == "MC-DLA(B)"

    def test_fault_and_prefetch_ride_in_replacements(self):
        point = lower_scenario(_training(
            fault_model="storm", prefetch_policy="stride"))
        config = point.build_config(scenario_design_point)
        assert config.fault_model == "storm"
        assert config.prefetch_policy == "stride"

    def test_pipeline_knobs(self):
        s = Scenario(name="pp", system=DesignSpec("dc"),
                     workload=WorkloadSpec(network="GPT2", batch=64,
                                           strategy="pipeline",
                                           microbatches=4,
                                           schedule="gpipe"))
        point = lower_scenario(s)
        assert point.strategy is ParallelStrategy.PIPELINE
        config = point.build_config(scenario_design_point)
        assert config.pipeline_schedule == "gpipe"
        assert config.pipeline_microbatches == 4

    def test_serving_point(self):
        s = Scenario(name="sv", system=DesignSpec("mc-hbm"),
                     workload=WorkloadSpec(network="GPT2"),
                     traffic=TrafficSpec(rate=200.0, slo_ms=40.0,
                                         max_wait_ms=2.0))
        point = lower_scenario(s)
        assert point.is_serving
        knobs = dict(point.serving)
        assert knobs["rate"] == 200.0
        assert knobs["slo"] == 0.04
        assert knobs["max_wait"] == 0.002

    def test_cluster_point(self):
        s = Scenario(name="cl", system=DesignSpec("mc-hbm"),
                     fleet=FleetSpec(n_jobs=8, pool_capacity=1 * TB))
        point = lower_scenario(s)
        assert point.is_cluster
        knobs = dict(point.cluster)
        assert knobs["n_jobs"] == 8
        assert knobs["pool_capacity"] == 1 * TB
        assert point.network == "mix:balanced"

    def test_default_fleet_is_simulate_clusters(self):
        """``FleetSpec()`` lowers to ``simulate_cluster``'s defaults."""
        point = lower_scenario(Scenario(name="f", system=DesignSpec("dc"),
                                        fleet=FleetSpec()))
        knobs = dict(point.cluster)
        for name, param in inspect.signature(
                simulate_cluster).parameters.items():
            if param.kind is not param.KEYWORD_ONLY or name == "jobs":
                continue
            if param.default is None:
                assert name not in knobs
            else:
                assert knobs[name] == param.default, name

    def test_cache_keys_distinguish_dsl_axes(self):
        plain = lower_scenario(_training(name="x"))
        pim = lower_scenario(Scenario(
            name="x", system=DesignSpec("mc-hbm", pim_fraction=0.25),
            workload=WorkloadSpec(network="AlexNet")))
        assert canonical_fingerprint(
            plain.describe(scenario_design_point)) \
            != canonical_fingerprint(pim.describe(scenario_design_point))


class TestCompositeDevice:
    def test_worst_member_gates_every_resource(self):
        mix = (("Kepler", 4), ("Volta", 4))
        device = composite_device(mix)
        assert device.name == "mix(Keplerx4+Voltax4)"
        # Kepler loses on MACs, bandwidth, and capacity alike.
        assert device.pe_array.peak_macs_per_sec \
            == composite_device((("Kepler", 8),)).pe_array.peak_macs_per_sec
        assert device.hbm.bandwidth == 288e9
        assert device.hbm.capacity \
            == composite_device((("Kepler", 1),)).hbm.capacity

    def test_fleet_width_is_sum_of_counts(self):
        config = scenario_design_point(
            "MC-DLA(B)", device_mix=(("Pascal", 2), ("Volta", 2)))
        assert config.n_devices == 4

    def test_homogeneous_mix_equals_generation(self):
        mixed = scenario_design_point("MC-DLA(B)",
                                      device_mix=(("Volta", 8),))
        assert mixed.device.pe_array \
            == design_point("MC-DLA(B)").device.pe_array


class TestPim:
    def test_scale_identity_at_zero(self):
        assert pim_bandwidth_scale(0.0, 900e9, 2048e9) == 1.0

    def test_scale_peaks_at_knee(self):
        hbm, pim = 900e9, 2048e9
        knee = pim / (pim + hbm)
        at_knee = pim_bandwidth_scale(knee, hbm, pim)
        assert at_knee > pim_bandwidth_scale(knee - 0.1, hbm, pim)
        assert at_knee > pim_bandwidth_scale(min(knee + 0.2, 0.99),
                                             hbm, pim)

    def test_pim_requires_memory_node(self):
        with pytest.raises(ValueError, match="memory-node"):
            scenario_design_point("DC-DLA", pim_fraction=0.25)

    def test_pim_scales_device_bandwidth(self):
        base = design_point("MC-DLA(B)")
        pim = with_pim(base, 0.5)
        node_bw = base.memory_node.memory_bandwidth
        expected = pim_bandwidth_scale(
            0.5, base.device.hbm.bandwidth,
            node_bw * PIM_INTERNAL_AMPLIFICATION)
        assert pim.device.hbm.bandwidth \
            == pytest.approx(base.device.hbm.bandwidth * expected)
