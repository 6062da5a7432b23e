"""CLI glue for ``--telemetry``: one context manager, five CLIs.

:class:`TelemetrySession` is what the campaign/cluster/serve/prefetch/
bench CLIs wrap their run in.  When disabled it does nothing at all.
When enabled it:

* clears the process-wide pricing memos first (so the metrics of a
  run are a deterministic function of its configuration, not of what
  the process happened to simulate earlier), then turns on the
  metrics registry and the span tracer;
* collects the events the CLI :meth:`emit`\\ s (one dict per cell);
* on clean exit writes three artifacts next to the run's output
  (``<base>.telemetry.jsonl``, ``<base>.manifest.json``,
  ``<base>.prom``), prints the end-of-run summary table to stderr,
  and turns telemetry back off.

The JSONL stream is deterministic: events are written in input order
and carry no wall-clock; wall-clock lives only in the manifest
(``wall_seconds``/``phases``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.telemetry.manifest import build_manifest, write_manifest
from repro.telemetry.registry import metrics_registry, to_prometheus
from repro.telemetry.spans import span_recorder, span_totals

__all__ = ["TelemetrySession", "add_telemetry_argument",
           "artifact_paths", "eta_seconds", "summary_text"]


def eta_seconds(total_sim_seconds: float, simulated: int,
                remaining: int) -> float | None:
    """Mean-cell ETA of a campaign's live progress line.

    Returns ``None`` when nothing has simulated yet (a fully-cached
    run has zero non-cached cells -- the mean would divide by zero) or
    when nothing remains.
    """
    if simulated <= 0 or remaining <= 0:
        return None
    return total_sim_seconds / simulated * remaining


def add_telemetry_argument(parser) -> None:
    parser.add_argument(
        "--telemetry", action="store_true",
        help="collect metrics + host spans; write JSONL/Prometheus/"
             "manifest artifacts next to the output and print a "
             "summary table")


def artifact_paths(tool: str, output: str | None) -> dict[str, Path]:
    """Artifact paths derived from ``--output`` (or the tool name,
    in the working directory, when there is no output file)."""
    base = Path(output).with_suffix("") if output else Path(tool)
    return {
        "jsonl": base.with_name(base.name + ".telemetry.jsonl"),
        "manifest": base.with_name(base.name + ".manifest.json"),
        "prom": base.with_name(base.name + ".prom"),
    }


def _hit_rate_rows(snapshot: dict[str, Any]) -> list[list[object]]:
    """Pair ``*_hits_total`` counters with their ``*_misses_total``
    twins (same labels) into hit-rate table rows."""
    values: dict[tuple[str, tuple], float] = {}
    for entry in snapshot.get("counters", ()):
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        values[key] = entry["value"]
    rows = []
    for (name, labels), hits in sorted(values.items()):
        if not name.endswith("_hits_total"):
            continue
        misses = values.get((name[:-len("_hits_total")]
                             + "_misses_total", labels), 0)
        total = hits + misses
        if total == 0:
            continue
        stem = name.removeprefix("repro_").removesuffix("_hits_total")
        label_text = ",".join(f"{k}={v}" for k, v in labels)
        rows.append([f"{stem}[{label_text}]" if label_text else stem,
                     int(hits), int(misses),
                     f"{100.0 * hits / total:.1f}%"])
    return rows


def _counter_rows(snapshot: dict[str, Any]) -> list[list[object]]:
    rows = []
    for entry in snapshot.get("counters", ()):
        name = entry["name"]
        if name.endswith(("_hits_total", "_misses_total")):
            continue
        label_text = ",".join(f"{k}={v}"
                              for k, v in sorted(entry["labels"].items()))
        shown = name.removeprefix("repro_").removesuffix("_total")
        rows.append([f"{shown}[{label_text}]" if label_text else shown,
                     entry["value"]])
    return rows


def summary_text(snapshot: dict[str, Any],
                 phases: dict[str, dict[str, float]]) -> str:
    """The end-of-run summary table (phases, hit rates, counters)."""
    from repro.experiments.report import format_table
    sections = []
    if phases:
        sections.append(format_table(
            ["phase", "count", "seconds"],
            [[name, int(entry["count"]), entry["seconds"]]
             for name, entry in phases.items()],
            title="telemetry: host phases"))
    hit_rows = _hit_rate_rows(snapshot)
    if hit_rows:
        sections.append(format_table(
            ["cache/memo", "hits", "misses", "hit rate"], hit_rows,
            title="telemetry: hit rates"))
    counter_rows = _counter_rows(snapshot)
    if counter_rows:
        sections.append(format_table(
            ["counter", "value"], counter_rows,
            title="telemetry: counters"))
    return "\n\n".join(sections)


class TelemetrySession:
    """See the module docstring.  Inert unless ``enabled``."""

    def __init__(self, *, tool: str, argv, enabled: bool,
                 output: str | None = None, config: Any = None,
                 seed: int | None = None) -> None:
        self.tool = tool
        self.argv = list(argv)
        self.enabled = enabled
        self.output = output
        self.config = config
        self.seed = seed
        self.events: list[dict] = []
        self.cells: dict[str, int] | None = None
        self.snapshot: dict[str, Any] | None = None
        self.phases: dict[str, dict[str, float]] = {}

    def emit(self, event: dict) -> None:
        """Queue one JSONL event (written, in order, at exit)."""
        if self.enabled:
            self.events.append(event)

    def __enter__(self) -> TelemetrySession:
        if self.enabled:
            from repro.core import pricing
            pricing.clear_caches()
            telemetry.enable(fresh=True)
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Always returns False: the session must never swallow an
        # in-run exception.  The three artifacts still flush on the
        # error path (truncated telemetry beats none when a campaign
        # dies mid-run), but a failure *while flushing* must not mask
        # the original exception.
        if not self.enabled:
            return False
        try:
            self._finalize(
                error=None if exc_type is None else exc_type.__name__)
        except Exception:
            if exc_type is None:
                raise
        finally:
            telemetry.disable()
        return False

    def _finalize(self, error: str | None = None) -> None:
        wall = time.perf_counter() - self._t0
        registry = metrics_registry()
        recorder = span_recorder()
        self.snapshot = registry.snapshot() if registry else None
        self.phases = span_totals(
            recorder.spans if recorder else ())
        paths = artifact_paths(self.tool, self.output)

        lines = [{"event": "begin", "tool": self.tool,
                  "argv": self.argv}]
        lines.extend(self.events)
        lines.append({"event": "metrics", "snapshot": self.snapshot})
        end: dict[str, Any] = {"event": "end",
                               "n_events": len(self.events)}
        if error is not None:
            end["error"] = error
        if self.cells is not None:
            end["cells"] = dict(self.cells)
        lines.append(end)
        paths["jsonl"].write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n"
                    for line in lines))

        paths["prom"].write_text(to_prometheus(self.snapshot or {}))

        write_manifest(paths["manifest"], build_manifest(
            tool=self.tool, argv=self.argv, config=self.config,
            seed=self.seed, phases=self.phases, wall_seconds=wall,
            cells=self.cells))

        summary = summary_text(self.snapshot or {}, self.phases)
        if summary:
            print(summary, file=sys.stderr)
        print(f"telemetry: wrote {paths['jsonl']}, "
              f"{paths['manifest']}, {paths['prom']}",
              file=sys.stderr)
