"""Section V-B sensitivity studies.

Four variations on the baseline comparison:

* **PCIe gen4** doubles DC-DLA's host link (paper: DC-DLA +38%, the
  MC-DLA gap narrows from 2.8x to 2.1x);
* **TPUv2-class devices** make every design compute-faster, so the
  migration wall bites harder (paper: MC-DLA gap widens to 3.2x);
* **DGX-2-class nodes** (16 devices, NVLINK2-rate links) scale the node
  up (paper: 2.9x);
* **cDMA compression** shrinks DC-DLA's CNN migration traffic by 2.6x
  (paper: the CNN gap narrows to 2.3x).

The whole section is one set of declared scenarios: every (variant,
workload, strategy) cell is a :class:`~repro.scenarios.dsl.Scenario`
run through :func:`repro.scenarios.runner.run_study`.  Cells several
studies share (the unmodified MC-DLA(B) grid) are declared once, and a
cell the claims suite declares identically keys the same cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.cache import ResultCache
from repro.core.metrics import SimulationResult
from repro.dnn.registry import BENCHMARK_NAMES, CNN_NAMES
from repro.experiments.report import format_table
from repro.scenarios.dsl import DesignSpec, Pairs, Scenario, WorkloadSpec
from repro.scenarios.runner import run_study
from repro.units import harmonic_mean

CDMA_COMPRESSION = 2.6

_STRATEGIES = ("data", "model")

#: label -> (design, factory overrides, networks to sweep).  Spec-valued
#: overrides name their spec (see :mod:`repro.naming`).
_VARIANTS: dict[str, tuple[str, Pairs, tuple[str, ...]]] = {
    "dc": ("DC-DLA", (), BENCHMARK_NAMES),
    "dc/gen4": ("DC-DLA", (("pcie", "pcie-gen4-x16"),), BENCHMARK_NAMES),
    "dc/tpuv2": ("DC-DLA", (("device", "TPUv2"),), BENCHMARK_NAMES),
    "dc/dgx2": ("DC-DLA", (("n_devices", 16), ("link", "nvlink2")),
                BENCHMARK_NAMES),
    "dc/cdma": ("DC-DLA", (("compression", CDMA_COMPRESSION),),
                CNN_NAMES),
    "mc": ("MC-DLA(B)", (), BENCHMARK_NAMES),
    "mc/tpuv2": ("MC-DLA(B)", (("device", "TPUv2"),), BENCHMARK_NAMES),
    "mc/dgx2": ("MC-DLA(B)", (("n_devices", 16), ("link", "nvlink2")),
                BENCHMARK_NAMES),
}

#: (label, network, strategy) -> the cell's result.
_Results = dict[tuple[str, str, str], SimulationResult]


@dataclass(frozen=True)
class SensitivityStudy:
    name: str
    paper_gap: float          # MC-DLA(B)/DC-DLA the paper reports
    measured_gap: float
    networks: tuple[str, ...]
    note: str = ""


@dataclass(frozen=True)
class SensitivityResult:
    studies: tuple[SensitivityStudy, ...]
    dc_gen4_improvement: float   # DC-DLA gen4 over gen3 (paper: +38%)

    def study(self, name: str) -> SensitivityStudy:
        for s in self.studies:
            if s.name == name:
                return s
        raise KeyError(name)


def _gap(results: _Results, base_label: str, label: str,
         networks: tuple[str, ...]) -> float:
    """Harmonic-mean speedup of ``label``'s cells over ``base_label``'s."""
    speedups = []
    for strategy in _STRATEGIES:
        for network in networks:
            base = results[(base_label, network, strategy)]
            ours = results[(label, network, strategy)]
            speedups.append(ours.speedup_over(base))
    return harmonic_mean(speedups)


def run_sensitivity(batch: int = 512, jobs: int = 1,
                    cache: ResultCache | None = None) \
        -> SensitivityResult:
    results = run_study({
        (label, network, strategy): Scenario(
            name=f"{label}/{network}/{strategy}",
            system=DesignSpec(design, overrides=overrides),
            workload=WorkloadSpec(network, batch, strategy))
        for label, (design, overrides, networks) in _VARIANTS.items()
        for strategy in _STRATEGIES for network in networks
    }, jobs=jobs, cache=cache)

    baseline_gap = _gap(results, "dc", "mc", BENCHMARK_NAMES)
    gen4_gap = _gap(results, "dc/gen4", "mc", BENCHMARK_NAMES)
    tpu_gap = _gap(results, "dc/tpuv2", "mc/tpuv2", BENCHMARK_NAMES)
    dgx2_gap = _gap(results, "dc/dgx2", "mc/dgx2", BENCHMARK_NAMES)
    cdma_gap = _gap(results, "dc/cdma", "mc", CNN_NAMES)
    # DC-DLA's own improvement from gen4 (averaged across the grid).
    dc_gen4 = _gap(results, "dc", "dc/gen4", BENCHMARK_NAMES) - 1.0

    studies = (
        SensitivityStudy("baseline", 2.8, baseline_gap, BENCHMARK_NAMES),
        SensitivityStudy("pcie-gen4", 2.1, gen4_gap, BENCHMARK_NAMES,
                         "DC-DLA with PCIe gen4"),
        SensitivityStudy("tpuv2-device", 3.2, tpu_gap, BENCHMARK_NAMES,
                         "TPUv2-class device-nodes everywhere"),
        SensitivityStudy("dgx2-node", 2.9, dgx2_gap, BENCHMARK_NAMES,
                         "16 devices, NVLINK2-rate links"),
        SensitivityStudy("cdma-compression", 2.3, cdma_gap, CNN_NAMES,
                         f"{CDMA_COMPRESSION}x CNN traffic compression"),
    )
    return SensitivityResult(studies=studies, dc_gen4_improvement=dc_gen4)


def format_sensitivity(result: SensitivityResult) -> str:
    rows = [[s.name, f"{s.measured_gap:.2f}x", f"{s.paper_gap:.1f}x",
             s.note]
            for s in result.studies]
    table = format_table(
        ["study", "MC-DLA(B)/DC-DLA", "paper", "notes"], rows,
        title="Section V-B sensitivity studies")
    return (f"{table}\n"
            f"DC-DLA improvement from PCIe gen4: "
            f"{result.dc_gen4_improvement * 100:.0f}% (paper: 38%)")
