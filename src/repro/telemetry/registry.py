"""Process-wide deterministic metrics registry.

The registry is *off* by default and costs nothing when off: every
handle constructor (:func:`counter`, :func:`gauge`,
:func:`histogram`) returns the shared :data:`NOOP` singleton whose
methods are empty -- no allocation, no branching in the instrumented
code.  Hot modules keep module-global handles and register an
:func:`on_activation` hook; enabling/disabling the registry rebinds
those globals between real series and :data:`NOOP` in one pass, so
probe sites never test a flag.

Everything observable is deterministic: series are keyed on
``(kind, name, sorted labels)``, :meth:`MetricsRegistry.snapshot`
emits them sorted by ``(name, labels)``, and snapshots survive an
exact JSON round-trip (``from_snapshot(snapshot()).snapshot()`` is
``==``).  Snapshots from pool workers merge with
:meth:`MetricsRegistry.merge_snapshot` (counters and histogram bins
add, gauges keep the max), and :func:`to_prometheus` renders any
snapshot in the Prometheus text exposition format.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from typing import Any

__all__ = [
    "NOOP", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "counter", "gauge", "histogram", "enable_metrics",
    "disable_metrics", "metrics_registry", "on_activation",
    "to_prometheus",
]

Labels = tuple[tuple[str, str], ...]


class _Noop:
    """The do-nothing handle every constructor returns when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The shared disabled handle.  Identity-comparable: probe code and
#: tests may assert ``handle is NOOP``.
NOOP = _Noop()


class Counter:
    """A monotonically increasing labeled counter."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A labeled point-in-time value."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram bucket upper bounds (counts of things, not
#: seconds): roughly one bucket per half decade.
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500,
                   1000, 2000, 5000, 10000)


class Histogram:
    """A labeled histogram with fixed, cumulative-style buckets.

    ``buckets`` are inclusive upper bounds; observations above the
    last bound land in the implicit ``+Inf`` overflow bucket (the
    final slot of ``counts``).
    """

    __slots__ = ("name", "help", "labels", "buckets", "counts",
                 "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, help: str, labels: Labels,
                 buckets: Sequence[float]) -> None:
        bounds = tuple(buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be sorted and "
                             "unique")
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum: float = 0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


def _label_key(labels: dict[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Holds every live series; see the module docstring."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str, Labels],
                           Counter | Gauge | Histogram] = {}

    def _get(self, factory, kind: str, name: str, help: str,
             labels: dict[str, Any], *args):
        key = (kind, name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            for other_kind, other_name, _ in self._series:
                if other_name == name and other_kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a "
                        f"{other_kind}, not a {kind}")
            series = factory(name, help, key[2], *args)
            self._series[key] = series
        return series

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, "counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, "gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, "histogram", name, help, labels,
                         buckets)

    def snapshot(self) -> dict[str, Any]:
        """A sorted, JSON-round-trippable image of every series."""
        out: dict[str, list] = {"counters": [], "gauges": [],
                                "histograms": []}
        for (kind, name, labels), series in sorted(
                self._series.items()):
            entry: dict[str, Any] = {
                "name": name,
                "help": series.help,
                "labels": {k: v for k, v in labels},
            }
            if kind == "histogram":
                entry["buckets"] = list(series.buckets)
                entry["counts"] = list(series.counts)
                entry["sum"] = series.sum
                entry["count"] = series.count
            else:
                entry["value"] = series.value
            out[kind + "s"].append(entry)
        return out

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> MetricsRegistry:
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold another snapshot in: counters and histogram bins add,
        gauges keep the maximum seen."""
        for entry in snapshot.get("counters", ()):
            series = self.counter(entry["name"], entry["help"],
                                  **entry["labels"])
            series.value += entry["value"]
        for entry in snapshot.get("gauges", ()):
            series = self.gauge(entry["name"], entry["help"],
                                **entry["labels"])
            series.value = max(series.value, entry["value"])
        for entry in snapshot.get("histograms", ()):
            series = self.histogram(entry["name"], entry["help"],
                                    buckets=entry["buckets"],
                                    **entry["labels"])
            if tuple(entry["buckets"]) != series.buckets:
                raise ValueError(
                    f"histogram {entry['name']!r} bucket mismatch")
            for i, count in enumerate(entry["counts"]):
                series.counts[i] += count
            series.sum += entry["sum"]
            series.count += entry["count"]


# -- module-level activation state ----------------------------------

_REGISTRY: MetricsRegistry | None = None
_HOOKS: list[Callable[[MetricsRegistry | None], None]] = []


def metrics_registry() -> MetricsRegistry | None:
    """The live registry, or ``None`` when metrics are disabled."""
    return _REGISTRY


def on_activation(hook: Callable[[MetricsRegistry | None], None]) -> None:
    """Register ``hook(registry_or_None)``; called on every
    enable/disable transition and immediately at registration so a
    probe module's globals are always in the current state."""
    _HOOKS.append(hook)
    hook(_REGISTRY)


def _notify() -> None:
    for hook in _HOOKS:
        hook(_REGISTRY)


def enable_metrics(fresh: bool = True) -> MetricsRegistry:
    """Turn metrics on (with a new, empty registry unless ``fresh``
    is false and one is already live) and rebind every probe."""
    global _REGISTRY
    if _REGISTRY is None or fresh:
        _REGISTRY = MetricsRegistry()
    _notify()
    return _REGISTRY


def disable_metrics() -> None:
    """Turn metrics off and rebind every probe to :data:`NOOP`."""
    global _REGISTRY
    _REGISTRY = None
    _notify()


def counter(name: str, help: str = "", **labels):
    """A counter handle, or :data:`NOOP` when disabled."""
    if _REGISTRY is None:
        return NOOP
    return _REGISTRY.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels):
    """A gauge handle, or :data:`NOOP` when disabled."""
    if _REGISTRY is None:
        return NOOP
    return _REGISTRY.gauge(name, help, **labels)


def histogram(name: str, help: str = "",
              buckets: Sequence[float] = DEFAULT_BUCKETS, **labels):
    """A histogram handle, or :data:`NOOP` when disabled."""
    if _REGISTRY is None:
        return NOOP
    return _REGISTRY.histogram(name, help, buckets=buckets, **labels)


# -- Prometheus text exposition -------------------------------------

def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _labels_text(labels: dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _number(value: float) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"non-numeric sample value: {value!r}")
    return repr(value)


def to_prometheus(snapshot: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` image as Prometheus
    text exposition format (one ``# HELP``/``# TYPE`` pair per metric
    name, histogram series as ``_bucket``/``_sum``/``_count``)."""
    lines: list[str] = []
    seen: set[str] = set()

    def header(name: str, help: str, kind: str) -> None:
        if name in seen:
            return
        seen.add(name)
        if help:
            lines.append(f"# HELP {name} {_escape(help)}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        header(entry["name"], entry["help"], "counter")
        lines.append(f"{entry['name']}{_labels_text(entry['labels'])} "
                     f"{_number(entry['value'])}")
    for entry in snapshot.get("gauges", ()):
        header(entry["name"], entry["help"], "gauge")
        lines.append(f"{entry['name']}{_labels_text(entry['labels'])} "
                     f"{_number(entry['value'])}")
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        header(name, entry["help"], "histogram")
        labels = entry["labels"]
        cumulative = 0
        bounds = [*entry["buckets"], "+Inf"]
        for bound, count in zip(bounds, entry["counts"]):
            cumulative += count
            le = bound if isinstance(bound, str) else _number(bound)
            extra = 'le="%s"' % le
            lines.append(
                f"{name}_bucket{_labels_text(labels, extra)} "
                f"{cumulative}")
        lines.append(f"{name}_sum{_labels_text(labels)} "
                     f"{_number(entry['sum'])}")
        lines.append(f"{name}_count{_labels_text(labels)} "
                     f"{entry['count']}")
    return "\n".join(lines) + "\n" if lines else ""
