"""repro.telemetry: metrics, span tracing, and run manifests.

The observability layer for the whole package.  Three pieces:

* :mod:`repro.telemetry.registry` -- a process-wide deterministic
  metrics registry (labeled counters/gauges/histograms, exact JSON
  round-trip snapshots, Prometheus text export) with true no-op
  handles when disabled;
* :mod:`repro.telemetry.spans` -- a host-side wall-clock span tracer
  whose spans nest and export standalone or merged into the
  Chrome/Perfetto trace from :mod:`repro.core.trace`;
* :mod:`repro.telemetry.manifest` -- the run-provenance manifest
  (config/code fingerprints, seed, interpreter versions, per-phase
  wall-clock).

Everything is **off by default and inert when off**: probes compile
to calls on shared no-op singletons, simulated results are
byte-identical either way, and the CLI layer
(:mod:`repro.telemetry.session`) only activates under the
``--telemetry`` flag.

    from repro import telemetry

    telemetry.enable()
    ... run simulations ...
    snapshot = telemetry.metrics_registry().snapshot()
    telemetry.disable()
"""

from repro.telemetry.registry import (disable_metrics, enable_metrics,
                                      metrics_registry)
from repro.telemetry.spans import disable_tracing, enable_tracing

__all__ = ["disable", "enable", "enabled"]


def enable(fresh: bool = True):
    """Turn on both the metrics registry and the span tracer; return
    the live :class:`~repro.telemetry.registry.MetricsRegistry`."""
    registry = enable_metrics(fresh)
    enable_tracing(fresh)
    return registry


def disable() -> None:
    """Turn off metrics and tracing; probes rebind to no-ops."""
    disable_metrics()
    disable_tracing()


def enabled() -> bool:
    """True when the metrics registry is live."""
    return metrics_registry() is not None
