"""Campaign points: one simulator cell, declaratively.

A :class:`CampaignPoint` names everything needed to rebuild and rerun a
single ``simulate()`` call in another process or another month:

* ``design`` — a design-point factory name (``"DC-DLA"``, ...);
* ``network`` / ``batch`` / ``strategy`` — the workload;
* ``overrides`` — keyword arguments for the factory, as a sorted tuple
  of pairs (the Section V-B sensitivity variants parameterize here);
* ``replacements`` — ``dataclasses.replace`` fields applied to the
  built :class:`~repro.core.system.SystemConfig` (the ablation knobs
  such as ``offload_window`` that no factory exposes);
* ``label`` — an optional display name distinguishing variants that
  share a factory (defaults to ``design``).

Points are frozen, hashable, and picklable, so they travel to pool
workers and hash into the on-disk cache key unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.core.design_points import design_point
from repro.core.system import SystemConfig
from repro.training.parallel import ParallelStrategy

Overrides = tuple[tuple[str, Any], ...]


@dataclass(frozen=True)
class CampaignPoint:
    """One (design, network, batch, strategy) cell of a campaign."""

    design: str
    network: str
    batch: int = 512
    strategy: ParallelStrategy = ParallelStrategy.DATA
    overrides: Overrides = ()
    replacements: Overrides = ()
    label: str | None = None
    #: Keyword arguments for :func:`repro.serving.simulate_serving`
    #: (as sorted pairs).  Non-empty turns this cell into a serving
    #: simulation instead of a training iteration.
    serving: Overrides = ()
    #: Keyword arguments for :func:`repro.cluster.simulate_cluster`
    #: (as sorted pairs).  Non-empty turns this cell into a cluster
    #: simulation instead of a training iteration.
    cluster: Overrides = ()

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if self.serving and self.cluster:
            raise ValueError("a point is serving or cluster, not both")
        object.__setattr__(self, "overrides",
                           tuple(sorted(self.overrides)))
        object.__setattr__(self, "replacements",
                           tuple(sorted(self.replacements)))
        object.__setattr__(self, "serving",
                           tuple(sorted(self.serving)))
        object.__setattr__(self, "cluster",
                           tuple(sorted(self.cluster)))

    @property
    def is_serving(self) -> bool:
        return bool(self.serving)

    @property
    def is_cluster(self) -> bool:
        return bool(self.cluster)

    @property
    def name(self) -> str:
        """The display/lookup name of this point's configuration."""
        return self.label if self.label is not None else self.design

    @property
    def key(self) -> tuple[str, str, int, ParallelStrategy]:
        """The (name, network, batch, strategy) lookup key."""
        return (self.name, self.network, self.batch, self.strategy)

    def build_config(self, factory=design_point) -> SystemConfig:
        """Materialize the :class:`SystemConfig` this point describes."""
        config = factory(self.design, **dict(self.overrides))
        if self.replacements:
            config = dataclasses.replace(config,
                                         **dict(self.replacements))
        return config

    def describe(self, factory=None) -> dict[str, Any]:
        """A canonical, JSON-stable description (feeds the cache key).

        With a ``factory``, the description additionally embeds the
        canonical image of the *built* :class:`SystemConfig` -- the
        full config fingerprint.  The point axes alone are not enough
        for safe caching: a factory whose behavior changes between
        runs (a flipped module default such as the prefetch policy)
        yields a different simulation from the identical axes, and a
        key without the built config would silently replay the stale
        result across policies.
        """
        description = {
            "design": self.design,
            "network": self.network,
            "batch": self.batch,
            "strategy": self.strategy.value,
            "overrides": canonicalize(self.overrides),
            "replacements": canonicalize(self.replacements),
            "serving": canonicalize(self.serving),
            "cluster": canonicalize(self.cluster),
        }
        if factory is not None:
            description["config"] = canonicalize(
                self.build_config(factory))
        return description


def grid(designs, networks, batches=(512,),
         strategies=(ParallelStrategy.DATA,)) -> tuple[CampaignPoint, ...]:
    """The cross product of the four axes, in presentation order.

    ``designs`` are design-point factory names and ``networks``
    registry names; ``batches`` are sample counts.  Iterates
    strategy-major then network then design, matching the paper's
    evaluation-matrix ordering.
    """
    points = []
    for strategy in strategies:
        for network in networks:
            for batch in batches:
                for design in designs:
                    points.append(CampaignPoint(
                        design=design, network=network, batch=batch,
                        strategy=strategy))
    return tuple(points)


def canonicalize(value: Any) -> Any:
    """Reduce a value to JSON-stable primitives for cache keying.

    Handles the spec objects campaigns actually pass around (frozen
    dataclasses such as ``LinkSpec``/``DeviceSpec``), enums, and nested
    containers; anything else falls back to ``repr``.  Sets are sorted
    by their canonical JSON image first -- Python iterates sets in
    hash order, which varies with ``PYTHONHASHSEED``, and a cache key
    must not.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {f.name: canonicalize(getattr(value, f.name))
                       for f in dataclasses.fields(value)},
        }
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        return {"__set__": sorted(items, key=_json_image)}
    if isinstance(value, (tuple, list)):
        return [canonicalize(item) for item in value]
    if isinstance(value, dict):
        return {str(k): canonicalize(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return {"__repr__": repr(value)}


def _json_image(value: Any) -> str:
    """A total, hash-independent ordering key for canonical values."""
    return json.dumps(value, sort_keys=True)


def canonical_fingerprint(value: Any) -> str:
    """SHA-256 of a value's canonical JSON image.

    Stable across processes, platforms, and ``PYTHONHASHSEED`` -- the
    identity the scenario DSL stamps on every declared scenario.
    """
    image = _json_image(canonicalize(value))
    return hashlib.sha256(image.encode("utf-8")).hexdigest()
