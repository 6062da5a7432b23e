"""Canonical names and friendly aliases shared by every CLI.

One table, three consumers: ``python -m repro serve``, ``python -m
repro cluster``, and the ``trace`` subcommand all accept the exact
Figure 11/13 design names plus the short aliases below, and the same
for workloads.  Keeping the mapping here (instead of copy-pasting it
per CLI) means a new design point or alias lands everywhere at once.

The scenario DSL resolves through the same table, including the spec
objects a design factory takes (``link``, ``pcie``, ``device``), which
a scenario names by the name each spec carries.
"""

from __future__ import annotations

from typing import Any

from repro.accelerator.generations import GENERATIONS
from repro.core.design_points import DESIGN_NAMES
from repro.dnn.registry import WORKLOAD_NAMES
from repro.faults.model import FAULT_MODEL_ORDER
from repro.interconnect.link import NVLINK, NVLINK2, PCIE_GEN3, PCIE_GEN4
from repro.pipeline.schedules import SCHEDULE_ALIASES, SCHEDULE_ORDER

#: Friendly aliases on top of the exact design-point names.
DESIGN_ALIASES = {
    "dc": "DC-DLA",
    "hc": "HC-DLA",
    "mc-star": "MC-DLA(S)",
    "mc-s": "MC-DLA(S)",
    "mc-dimm": "MC-DLA(L)",
    "mc-local": "MC-DLA(L)",
    "mc-l": "MC-DLA(L)",
    "mc-hbm": "MC-DLA(B)",
    "mc-bw": "MC-DLA(B)",
    "mc-b": "MC-DLA(B)",
    "oracle": "DC-DLA(O)",
}

#: Friendly aliases on top of the registered workload names.
NETWORK_ALIASES = {
    "bert": "BERT-Large",
}

#: Friendly aliases on top of the named fault models.
FAULT_ALIASES = {
    "healthy": "none",
    "ok": "none",
    "flaky": "flaky-link",
    "flap": "flaky-link",
    "degraded": "degraded-link",
    "slow-link": "degraded-link",
    "slow-device": "straggler",
    "throttled": "straggler",
    "pool-loss": "node-loss",
    "everything": "storm",
}


#: Spec-valued design-factory keywords -> the specs a scenario may
#: name, keyed by the name each carries.
_LINKS = {spec.name: spec for spec in (NVLINK, NVLINK2, PCIE_GEN3,
                                       PCIE_GEN4)}
_SPEC_OVERRIDES: dict[str, dict[str, Any]] = {
    "link": _LINKS,
    "pcie": _LINKS,
    "device": {spec.name: spec for spec in GENERATIONS},
}


def resolve_design(raw: str) -> str:
    """Map a design name or alias to its canonical form."""
    lowered = raw.strip().lower()
    if lowered in DESIGN_ALIASES:
        return DESIGN_ALIASES[lowered]
    for name in DESIGN_NAMES:
        if lowered == name.lower():
            return name
    raise KeyError(
        f"unknown design {raw!r}; known: {', '.join(DESIGN_NAMES)} "
        f"(aliases: {', '.join(sorted(DESIGN_ALIASES))})")


def resolve_spec(key: str, value: Any) -> Any:
    """The spec object a named design-factory override stands for.

    For a ``link``, ``pcie`` or ``device`` key and a string value, the
    spec whose name matches (case-insensitively); any other value as
    it is.
    """
    specs = _SPEC_OVERRIDES.get(key)
    if specs is None or not isinstance(value, str):
        return value
    lowered = value.strip().lower()
    for name, spec in specs.items():
        if lowered == name.lower():
            return spec
    raise KeyError(f"unknown {key} {value!r} in overrides; "
                   f"known: {', '.join(specs)}")


def resolve_network(raw: str) -> str:
    """Map a workload name or alias to its canonical form."""
    lowered = raw.strip().lower()
    if lowered in NETWORK_ALIASES:
        return NETWORK_ALIASES[lowered]
    for name in WORKLOAD_NAMES:
        if lowered == name.lower():
            return name
    raise KeyError(f"unknown network {raw!r}; "
                   f"known: {', '.join(WORKLOAD_NAMES)}")


def resolve_schedule(raw: str) -> str:
    """Map a pipeline-schedule name or alias to its canonical form."""
    lowered = raw.strip().lower()
    if lowered in SCHEDULE_ALIASES:
        return SCHEDULE_ALIASES[lowered]
    aliases = sorted(set(SCHEDULE_ALIASES) - set(SCHEDULE_ORDER))
    raise KeyError(
        f"unknown schedule {raw!r}; known: {', '.join(SCHEDULE_ORDER)} "
        f"(aliases: {', '.join(aliases)})")


def resolve_fault_model(raw: str) -> str:
    """Map a fault-model name or alias to its canonical form."""
    lowered = raw.strip().lower()
    if lowered in FAULT_ALIASES:
        return FAULT_ALIASES[lowered]
    if lowered in FAULT_MODEL_ORDER:
        return lowered
    raise KeyError(
        f"unknown fault model {raw!r}; "
        f"known: {', '.join(FAULT_MODEL_ORDER)} "
        f"(aliases: {', '.join(sorted(FAULT_ALIASES))})")
