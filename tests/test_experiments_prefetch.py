"""The prefetch-comparison study and its ``repro prefetch`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as repro_main
from repro.core.design_points import DESIGN_ORDER
from repro.experiments.modes import mode_scenarios
from repro.experiments.prefetch_comparison import (
    MC_DESIGNS, MODES, format_prefetch_comparison,
    run_prefetch_comparison, scalars_json)
from repro.vmem.prefetch import ON_DEMAND, PREFETCH_POLICY_ORDER


@pytest.fixture(scope="module")
def quick_study():
    return run_prefetch_comparison(modes=("training",),
                                   training_network="AlexNet")


class TestStudy:
    def test_covers_every_design_and_policy(self, quick_study):
        for design in DESIGN_ORDER:
            for policy in PREFETCH_POLICY_ORDER:
                result = quick_study.at("training", design, policy)
                assert result.prefetch.policy == policy

    def test_full_grid_shape(self):
        scenarios = mode_scenarios("prefetch_policy",
                                   PREFETCH_POLICY_ORDER)
        assert len(scenarios) == (len(MODES) * len(DESIGN_ORDER)
                                  * len(PREFETCH_POLICY_ORDER))
        assert len({s.name for s in scenarios.values()}) \
            == len(scenarios)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            mode_scenarios("prefetch_policy", PREFETCH_POLICY_ORDER,
                           modes=("training", "chaos"))

    def test_clairvoyant_strictly_reduces_stall_on_mc(self,
                                                      quick_study):
        for design in MC_DESIGNS:
            assert quick_study.stall_reduction(design) > 0.0

    def test_stall_accessors_consistent(self, quick_study):
        stall = quick_study.stall("training", "MC-DLA(B)", ON_DEMAND)
        result = quick_study.at("training", "MC-DLA(B)", ON_DEMAND)
        assert stall == result.prefetch.stall_seconds

    def test_formatting_has_tables_and_headlines(self, quick_study):
        text = format_prefetch_comparison(quick_study)
        assert "Prefetch policies x designs: training" in text
        assert "clairvoyant removes offload stall" in text
        assert "stride speculation moved" in text
        for policy in PREFETCH_POLICY_ORDER:
            assert policy in text

    def test_formatting_survives_policy_subsets(self):
        """Regression: headlines referencing on-demand/stride must not
        crash when --policies sweeps a subset without them."""
        study = run_prefetch_comparison(
            policies=("clairvoyant",), modes=("training",),
            training_network="AlexNet")
        text = format_prefetch_comparison(study)
        assert "lowest-stall policy per design" in text
        assert "removes offload stall" not in text
        assert "stride speculation" not in text

    def test_scalars_json_is_deterministic(self, quick_study):
        a = scalars_json(quick_study)
        b = scalars_json(run_prefetch_comparison(
            modes=("training",), training_network="AlexNet"))
        assert a == b


class TestPrefetchCli:
    def test_quick_json_output(self, tmp_path):
        out = tmp_path / "study.json"
        code = repro_main(["prefetch", "--quick", "--format", "json",
                           "-o", str(out)])
        assert code == 0
        scalars = json.loads(out.read_text())
        assert any(key.startswith("training/MC-DLA(B)/clairvoyant")
                   for key in scalars)

    def test_quick_table_output(self, capsys):
        assert repro_main(["prefetch", "--quick"]) == 0
        text = capsys.readouterr().out
        assert "Prefetch policies x designs: training" in text

    def test_unknown_policy_rejected(self, capsys):
        assert repro_main(["prefetch", "--policies", "belady"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_mode_rejected(self, capsys):
        assert repro_main(["prefetch", "--modes", "chaos"]) == 2
        assert "unknown mode" in capsys.readouterr().err

    @pytest.mark.parametrize("policies", ["", ","])
    def test_empty_policies_rejected(self, capsys, policies):
        assert repro_main(["prefetch", "--policies", policies]) == 2
        assert "--policies needs at least one value" \
            in capsys.readouterr().err

    def test_nonpositive_jobs_rejected(self, capsys):
        assert repro_main(["prefetch", "--quick", "--jobs", "-2"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_listed_in_usage(self, capsys):
        assert repro_main([]) == 0
        assert "prefetch" in capsys.readouterr().out
