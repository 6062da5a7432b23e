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

A campaign run builds each distinct (design, overrides, replacements)
config once, through a :class:`BuiltConfigs` that lives as long as the
run, and keys every cell from its small axes plus one digest of that
built config.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
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
    #: Keyword arguments for :func:`repro.serving.server.simulate_serving`
    #: (as sorted pairs).  Non-empty turns this cell into a serving
    #: simulation instead of a training iteration.
    serving: Overrides = ()
    #: Keyword arguments for :func:`repro.cluster.simulator.simulate_cluster`
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

        With a ``factory``, the description also carries ``config``,
        a SHA-256 digest of the *built* :class:`SystemConfig` (see
        :meth:`BuiltConfigs.digest`).  The point axes alone are not enough
        for safe caching: a factory whose behavior changes between
        runs (a flipped module default such as the prefetch policy)
        yields a different simulation from the identical axes, and a
        key without the built config would silently replay the stale
        result across policies.  ``factory`` may also be a run's
        :class:`BuiltConfigs`, which builds and digests each distinct
        config once for all the run's points.
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
            configs = (factory if isinstance(factory, BuiltConfigs)
                       else BuiltConfigs(factory))
            description["config"] = configs.digest(self)
        return description


class BuiltConfigs:
    """One run's configs: each distinct (design, overrides,
    replacements) built once, and each built config digested once.

    A campaign run creates one and drops it when it returns, so a
    factory whose behavior changes between runs builds afresh.  A pool
    worker receives only the factory (see :meth:`__reduce__`) and
    builds the configs of its own cells.
    """

    def __init__(self, factory) -> None:
        self.factory = factory
        self._configs: dict[tuple, SystemConfig] = {}
        #: id(value) -> (value, digest), for configs and the values
        #: nested in them; holding the value keeps its id from being
        #: reused by another object.
        self._digests: dict[int, tuple[Any, str]] = {}

    def __reduce__(self):
        return (BuiltConfigs, (self.factory,))

    def get(self, point: CampaignPoint) -> SystemConfig:
        """``point.build_config(factory)``, built once per run."""
        axes = (point.design, point.overrides, point.replacements)
        try:
            config = self._configs.get(axes)
        except TypeError:
            # An unhashable override value: build this point alone.
            return point.build_config(self.factory)
        if config is None:
            config = self._configs[axes] = point.build_config(
                self.factory)
        return config

    def digest(self, point: CampaignPoint) -> str:
        """The SHA-256 digest of ``point``'s built config."""
        return self._digest(self.get(point))

    def _digest(self, value: Any) -> str:
        """SHA-256 of ``value``'s canonical image, in which each field
        that is not a scalar stands as its own digest.

        Configs built from one design share their nested specs
        (device, collectives, memory node, ...), so each of those is
        reduced and hashed once per run rather than once per config.
        """
        entry = self._digests.get(id(value))
        if entry is not None:
            return entry[1]
        names = _field_names(type(value))
        if names is None:
            digest = canonical_fingerprint(value)
        else:
            fields = {}
            for name in names:
                item = getattr(value, name)
                fields[name] = (item if type(item) in _SCALAR_TYPES
                                else {"__sha256__": self._digest(item)})
            digest = _image_digest({"__dataclass__": type(value).__name__,
                                    "fields": fields})
        self._digests[id(value)] = (value, digest)
        return digest


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


#: Types ``canonicalize`` returns unchanged (as a value's exact type).
_SCALAR_TYPES = frozenset((type(None), bool, int, float, str))


def canonicalize(value: Any) -> Any:
    """Reduce a value to JSON-stable primitives for cache keying.

    Handles the spec objects campaigns actually pass around (frozen
    dataclasses such as ``LinkSpec``/``DeviceSpec``), enums, and nested
    containers; anything else falls back to ``repr``.  Sets are sorted
    by their canonical JSON image first -- Python iterates sets in
    hash order, which varies with ``PYTHONHASHSEED``, and a cache key
    must not.
    """
    cls = type(value)
    if cls in _SCALAR_TYPES:
        return value
    # Plain tuples and lists, and scalar items and fields, skip the
    # checks below (their output would be the same): a config's image
    # is mostly these.
    if cls is tuple or cls is list:
        return [item if type(item) in _SCALAR_TYPES else canonicalize(item)
                for item in value]
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": cls.__name__, "value": value.value}
    names = _field_names(cls)
    if names is not None:
        fields = {}
        for name in names:
            item = getattr(value, name)
            fields[name] = (item if type(item) in _SCALAR_TYPES
                            else canonicalize(item))
        return {"__dataclass__": cls.__name__, "fields": fields}
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        return {"__set__": sorted(items, key=_json_image)}
    if isinstance(value, (tuple, list)):
        return [canonicalize(item) for item in value]
    if isinstance(value, dict):
        return {str(k): canonicalize(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return {"__repr__": repr(value)}


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of dataclass type ``cls``, ``None`` for any other
    type.  A class's fields are fixed when it is defined, so they are
    looked up once per type rather than once per value."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def _json_image(value: Any) -> str:
    """A total, hash-independent ordering key for canonical values."""
    return json.dumps(value, sort_keys=True)


def canonical_fingerprint(value: Any) -> str:
    """SHA-256 of a value's canonical JSON image.

    Stable across processes, platforms, and ``PYTHONHASHSEED`` -- the
    identity the scenario DSL stamps on every declared scenario.
    """
    return _image_digest(canonicalize(value))


def _image_digest(image: Any) -> str:
    """SHA-256 of a canonical image's JSON text."""
    return hashlib.sha256(_json_image(image).encode("utf-8")).hexdigest()
