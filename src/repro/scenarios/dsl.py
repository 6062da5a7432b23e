"""The scenario DSL: frozen statements that compose one simulation.

A :class:`Scenario` declares everything the claims engine needs to
reproduce a cell -- system, workload, traffic, fleet, fault model --
as nested frozen dataclasses.  Two axes exist *only* here, with no CLI
flag equivalent:

* **heterogeneous fleets** (:attr:`DesignSpec.device_mix`): a gang
  mixing accelerator generations, timed at the pace of its slowest
  member (weak-scaling synchronization gates every iteration);
* **processing-in-memory** (:attr:`DesignSpec.pim_fraction`): memory
  nodes absorb a fraction of eligible bandwidth-bound op traffic at
  near-bank throughput (Mutlu, arXiv 2305.20000 / 2505.00458).

Every name routes through :mod:`repro.naming` at construction, so a
scenario is canonical the moment it exists; its identity is the
SHA-256 of its :func:`repro.campaign.points.canonicalize` image,
stable across processes and ``PYTHONHASHSEED``.  ``to_dict`` /
``from_dict`` (:func:`repro.records.record`) round-trip exactly (all
leaf values are JSON scalars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.accelerator.generations import generation
from repro.campaign.points import canonical_fingerprint, canonicalize
from repro.cluster.jobs import (DEFAULT_ARRIVAL_RATE,
                                DEFAULT_FLEET_DEVICES, DEFAULT_JOBS)
from repro.naming import (resolve_design, resolve_fault_model,
                          resolve_network, resolve_schedule, resolve_spec)
from repro.records import record
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER

#: Factory/replacement overrides as sorted (key, value) pairs.
Pairs = tuple[tuple[str, Any], ...]

#: Short strategy names accepted by :attr:`WorkloadSpec.strategy`.
STRATEGY_NAMES = ("data", "model", "pipeline")

_SCALARS = (bool, int, float, str)


def _check_pairs(label: str, pairs: Pairs) -> Pairs:
    out = []
    for pair in pairs:
        key, value = pair
        if not isinstance(key, str):
            raise ValueError(f"{label} keys must be strings")
        if value is not None and not isinstance(value, _SCALARS):
            raise ValueError(
                f"{label}[{key!r}] must be a JSON scalar, "
                f"got {type(value).__name__}")
        out.append((key, value))
    return tuple(sorted(out))


def _spec_name(key: str, value: Any) -> Any:
    """A spec-valued override's canonical name (other values as is)."""
    spec = resolve_spec(key, value)
    return value if spec is value else spec.name


@record
@dataclass(frozen=True)
class DesignSpec:
    """The system under test: a design point plus DSL-only axes."""

    design: str
    #: Keyword arguments for the design-point factory.  A spec-valued
    #: one (``link``, ``pcie``, ``device``) names its spec, e.g.
    #: ``("pcie", "pcie-gen4-x16")`` or ``("device", "TPUv2")``.
    overrides: Pairs = ()
    #: ``dataclasses.replace`` fields on the built ``SystemConfig``.
    replacements: Pairs = ()
    #: Heterogeneous fleet: ``((generation, count), ...)``.  Empty
    #: means the design's homogeneous default fleet.
    device_mix: tuple[tuple[str, int], ...] = ()
    #: Fraction of eligible op traffic executed in the memory nodes,
    #: in [0, 1).  Only meaningful on memory-node designs.
    pim_fraction: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "design", resolve_design(self.design))
        object.__setattr__(self, "overrides", tuple(
            (key, _spec_name(key, value))
            for key, value in _check_pairs("overrides", self.overrides)))
        object.__setattr__(self, "replacements",
                           _check_pairs("replacements",
                                        self.replacements))
        mix = []
        for name, count in self.device_mix:
            count = int(count)
            if count <= 0:
                raise ValueError("device_mix counts must be positive")
            mix.append((generation(name).name, count))
        names = [name for name, _ in mix]
        if len(set(names)) != len(names):
            raise ValueError("device_mix repeats a generation; "
                             "merge the counts")
        object.__setattr__(self, "device_mix", tuple(sorted(mix)))
        if not 0.0 <= self.pim_fraction < 1.0:
            raise ValueError("pim_fraction must lie in [0, 1)")


@record
@dataclass(frozen=True)
class WorkloadSpec:
    """What trains (or answers requests): network, batch, strategy."""

    network: str
    batch: int = 512
    strategy: str = "data"
    #: Pipeline-strategy knobs (ignored by data/model parallelism).
    microbatches: int = 8
    schedule: str = "1f1b"
    stages: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "network",
                           resolve_network(self.network))
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {', '.join(STRATEGY_NAMES)}")
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if self.microbatches < 1:
            raise ValueError("microbatches must be >= 1")
        if self.strategy == "pipeline" and self.batch % self.microbatches:
            raise ValueError(
                f"batch {self.batch} is not divisible by "
                f"pipeline_microbatches={self.microbatches}")
        try:
            object.__setattr__(self, "schedule",
                               resolve_schedule(self.schedule))
        except KeyError as exc:
            raise ValueError(str(exc).strip('"')) from None
        if self.stages < 0:
            raise ValueError("stages must be >= 0")


@record
@dataclass(frozen=True)
class TrafficSpec:
    """Inference traffic: declaring one turns the scenario serving."""

    arrival: str = "poisson"
    rate: float = 100.0
    n_requests: int = 512
    seed: int = 0
    slo_ms: float = 50.0
    max_batch: int = 8
    max_wait_ms: float = 2.0
    batcher: str = "dynamic"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("arrival rate must be positive")
        if self.n_requests <= 0:
            raise ValueError("n_requests must be positive")
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.batcher not in ("dynamic", "continuous"):
            raise ValueError("batcher must be 'dynamic' or "
                             "'continuous'")


@record
@dataclass(frozen=True)
class FleetSpec:
    """A multi-job fleet: declaring one turns the scenario cluster.

    Its defaults are :func:`repro.cluster.simulator.simulate_cluster`'s.
    """

    policy: str = "fifo"
    job_mix: str = "balanced"
    n_jobs: int = DEFAULT_JOBS
    seed: int = 0
    arrival_rate: float = DEFAULT_ARRIVAL_RATE
    fleet_devices: int = DEFAULT_FLEET_DEVICES
    pool_capacity: int | None = None
    oversubscription: float = 1.0
    preempt_after: float | None = None

    def __post_init__(self) -> None:
        if self.n_jobs <= 0:
            raise ValueError("n_jobs must be positive")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.fleet_devices <= 0:
            raise ValueError("fleet_devices must be positive")
        if self.pool_capacity is not None and self.pool_capacity <= 0:
            raise ValueError("pool_capacity must be positive")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        if self.preempt_after is not None and self.preempt_after <= 0:
            raise ValueError("preempt_after must be positive")


@record
@dataclass(frozen=True)
class Scenario:
    """One named, fully-specified simulation cell."""

    name: str
    system: DesignSpec
    workload: WorkloadSpec | None = None
    traffic: TrafficSpec | None = None
    fleet: FleetSpec | None = None
    fault_model: str = "none"
    prefetch_policy: str | None = None

    def __post_init__(self) -> None:
        if not self.name or "\n" in self.name:
            raise ValueError("scenario needs a single-line name")
        if self.traffic is not None and self.fleet is not None:
            raise ValueError(
                f"scenario {self.name!r}: traffic and fleet are "
                f"mutually exclusive")
        if self.fleet is None and self.workload is None:
            raise ValueError(
                f"scenario {self.name!r}: needs a workload "
                f"(or a fleet for cluster scenarios)")
        if self.fleet is not None and self.workload is not None:
            raise ValueError(
                f"scenario {self.name!r}: a fleet draws its own job "
                f"mix; drop the workload")
        object.__setattr__(self, "fault_model",
                           resolve_fault_model(self.fault_model))
        if self.prefetch_policy is not None \
                and self.prefetch_policy not in PREFETCH_POLICY_ORDER:
            raise ValueError(
                f"unknown prefetch policy {self.prefetch_policy!r}; "
                f"known: {', '.join(PREFETCH_POLICY_ORDER)}")

    @property
    def mode(self) -> str:
        """``"training"`` | ``"serving"`` | ``"cluster"``."""
        if self.fleet is not None:
            return "cluster"
        if self.traffic is not None:
            return "serving"
        return "training"

    def describe(self) -> dict[str, Any]:
        """The canonical JSON-stable image of this scenario."""
        return canonicalize(self)

    def fingerprint(self) -> str:
        """SHA-256 identity over :meth:`describe` (process-stable)."""
        return canonical_fingerprint(self)


__all__ = ["DesignSpec", "FleetSpec", "Pairs", "STRATEGY_NAMES",
           "Scenario", "TrafficSpec", "WorkloadSpec"]
