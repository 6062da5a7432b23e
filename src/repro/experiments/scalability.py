"""Section V-D: performance scalability across device counts.

Data-parallel CNN training on 1/4/8 devices, three configurations:

* DC-DLA with virtualization disabled -- near-perfect scaling (the
  paper's observation for memory-optimized workloads);
* DC-DLA with virtualization and DGX-style shared PCIe uplinks -- the
  host-device bottleneck erodes scaling (paper: 1.3x / 2.7x at 4 / 8
  devices);
* MC-DLA(B) -- scaling regained because migration rides the device-side
  interconnect.

The sweep is one set of declared scenarios, run through
:func:`repro.scenarios.runner.run_study`; each (configuration,
device-count) variant overrides the stock factories.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.cache import ResultCache
from repro.dnn.registry import CNN_NAMES
from repro.experiments.report import format_table
from repro.scenarios.dsl import DesignSpec, Scenario, WorkloadSpec
from repro.scenarios.runner import run_study
from repro.units import harmonic_mean

DEVICE_COUNTS = (1, 4, 8)

_CONFIGURATIONS = ("DC-DLA (no virtualization)", "DC-DLA (virtualized)",
                   "MC-DLA(B)")


@dataclass(frozen=True)
class ScalingPoint:
    configuration: str
    network: str
    n_devices: int
    node_throughput: float   # samples/sec across the node

    def scaling_vs(self, single: "ScalingPoint") -> float:
        return self.node_throughput / single.node_throughput


@dataclass(frozen=True)
class ScalabilityResult:
    points: tuple[ScalingPoint, ...]

    def point(self, configuration: str, network: str,
              n_devices: int) -> ScalingPoint:
        for p in self.points:
            if (p.configuration, p.network, p.n_devices) == \
                    (configuration, network, n_devices):
                return p
        raise KeyError((configuration, network, n_devices))

    def mean_scaling(self, configuration: str, n_devices: int) -> float:
        factors = []
        for network in CNN_NAMES:
            single = self.point(configuration, network, 1)
            multi = self.point(configuration, network, n_devices)
            factors.append(multi.scaling_vs(single))
        return harmonic_mean(factors)


def _system(configuration: str, n: int) -> DesignSpec:
    """The system of one configuration at ``n`` devices."""
    if configuration == "DC-DLA (no virtualization)":
        return DesignSpec("DC-DLA(O)", overrides=(("n_devices", n),))
    if configuration == "DC-DLA (virtualized)":
        return DesignSpec("DC-DLA", overrides=(("n_devices", n),
                                               ("shared_uplinks", True)))
    # MC-DLA needs two devices to form a ring; the single-"device" case
    # reuses a 2-node build but counts one device's share.
    return DesignSpec("MC-DLA(B)", overrides=(("n_devices", max(2, n)),))


def run_scalability(batch: int = 512, jobs: int = 1,
                    cache: ResultCache | None = None) \
        -> ScalabilityResult:
    results = run_study({
        (configuration, network, n): Scenario(
            name=f"{configuration}/n={n}/{network}",
            system=_system(configuration, n),
            workload=WorkloadSpec(network, batch))
        for n in DEVICE_COUNTS for configuration in _CONFIGURATIONS
        for network in CNN_NAMES
    }, jobs=jobs, cache=cache)
    # Weak scaling: node throughput is devices x per-device throughput.
    return ScalabilityResult(points=tuple(
        ScalingPoint(configuration, network, n,
                     result.batch / result.iteration_time * n)
        for (configuration, network, n), result in results.items()))


def format_scalability(result: ScalabilityResult) -> str:
    rows = []
    for configuration in _CONFIGURATIONS:
        for n in DEVICE_COUNTS[1:]:
            rows.append([configuration, n,
                         f"{result.mean_scaling(configuration, n):.2f}x"])
    table = format_table(
        ["configuration", "devices", "throughput scaling"],
        rows, title="Section V-D: data-parallel CNN scalability")
    return (f"{table}\n"
            f"Paper: no-virtualization scales ~4x/8x; virtualized "
            f"DC-DLA reaches only 1.3x/2.7x; MC-DLA regains scaling")
