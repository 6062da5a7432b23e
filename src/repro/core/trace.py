"""Timeline trace export.

Turns a scheduled iteration into inspectable artifacts:

* :func:`to_records` -- plain dicts (op, engine, channel, start,
  finish, bytes), convenient for dataframe-style analysis;
* :func:`to_chrome_trace` -- the Chrome/Perfetto ``trace_event`` JSON
  format (open in ``chrome://tracing`` or https://ui.perfetto.dev)
  with one row per engine -- per stage, for multi-channel pipeline
  timelines -- and optional bubble slices marking compute idle gaps;
* :func:`engine_utilization` -- busy fraction per engine over the
  iteration, the quickest way to see which resource bounds a design.

Slice categories come from an explicit tag-prefix registry
(:data:`TAG_CATEGORIES`); unknown prefixes fall back to ``"other"``
rather than being silently filed under a wrong category, and
:func:`tag_category` can be asked to ``strict``-fail instead so tests
catch unregistered tags.
"""

from __future__ import annotations

import json

from repro.core.optable import ColumnarTimeline
from repro.core.timeline import EngineKind

#: Stable row ordering for trace viewers (within one channel).
_ENGINE_ROWS = {
    EngineKind.COMPUTE: 0,
    EngineKind.COMM: 1,
    EngineKind.DMA_OUT: 2,
    EngineKind.DMA_IN: 3,
}

#: Tag prefix (before the first ``:``) -> trace category.  The
#: ``send-act``/``send-grad``/``bubble`` entries cover the
#: pipeline-parallel lowering's tags.
TAG_CATEGORIES: dict[str, str] = {
    "fwd": "compute", "bwd": "compute", "wgrad": "compute",
    "recompute": "compute",
    "offload": "migration", "prefetch": "migration",
    "wfetch": "migration", "waste": "migration",
    "sync-fwd": "collective", "sync-bwd": "collective",
    "sync-dw": "collective",
    "send-act": "pipeline", "send-grad": "pipeline",
    "bubble": "bubble",
}


def register_tag_category(prefix: str, category: str) -> None:
    """Register a tag prefix so custom schedules categorize cleanly."""
    if not prefix or ":" in prefix:
        raise ValueError(f"bad tag prefix {prefix!r}")
    if not category:
        raise ValueError("category must be non-empty")
    TAG_CATEGORIES[prefix] = category


def tag_category(tag: str, strict: bool = False) -> str:
    """The category of one op tag; unknown prefixes are ``"other"``.

    With ``strict=True`` an unregistered prefix raises instead, so
    schedule authors notice missing :func:`register_tag_category`
    calls rather than shipping miscategorized traces.
    """
    prefix = tag.split(":", 1)[0]
    category = TAG_CATEGORIES.get(prefix)
    if category is None:
        if strict:
            raise KeyError(
                f"op tag {tag!r} has no registered category; call "
                f"register_tag_category({prefix!r}, ...)")
        return "other"
    return category


def to_records(result: ColumnarTimeline) -> list[dict]:
    """One dict per scheduled op, in start-time order."""
    records = [
        {
            "uid": s.op.uid,
            "tag": s.op.tag,
            "engine": s.op.engine.value,
            "channel": s.op.channel,
            "start": s.start,
            "finish": s.finish,
            "duration": s.op.duration,
            "nbytes": s.op.nbytes,
        }
        for s in result.scheduled
    ]
    records.sort(key=lambda r: (r["start"], r["uid"]))
    return records


def _row_name(engine: EngineKind, channel: int,
              multi_channel: bool) -> str:
    if multi_channel:
        return f"stage{channel}/{engine.value}"
    return engine.value


def _bubble_events(result: ColumnarTimeline, pid: int,
                   tid_of) -> list[dict]:
    """Compute-idle slices per channel, between first and last op."""
    events = []
    for channel in result.channels:
        compute = sorted(result.ops_on(EngineKind.COMPUTE, channel),
                         key=lambda s: s.start)
        for before, after in zip(compute, compute[1:]):
            gap = after.start - before.finish
            if gap > 0:
                events.append({
                    "name": f"bubble:s{channel}",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid_of(EngineKind.COMPUTE, channel),
                    "ts": before.finish * 1e6,
                    "dur": gap * 1e6,
                    "cat": tag_category("bubble"),
                    "args": {"bytes": 0},
                })
    return events


def to_chrome_trace(result: ColumnarTimeline, pid: int = 1,
                    include_bubbles: bool = False,
                    host_spans=None) -> str:
    """Serialize the timeline as Chrome ``trace_event`` JSON.

    ``include_bubbles`` adds explicit idle slices on each compute row
    (between its first and last op) -- the visual bubble of a pipeline
    schedule.

    ``host_spans`` merges host-side wall-clock spans (from
    :mod:`repro.telemetry.spans`) into the same trace: the host rows
    export at ``pid=0`` so they sort above the simulated engine rows,
    and one Perfetto view shows where the *simulator* spent its time
    over the timeline it produced.  Note the two processes tick
    different clocks -- host microseconds vs simulated microseconds.
    """
    channels = result.channels
    multi = len(channels) > 1
    rows = len(_ENGINE_ROWS)

    def tid_of(engine: EngineKind, channel: int) -> int:
        return channels.index(channel) * rows + _ENGINE_ROWS[engine]

    events = [
        {
            "name": _row_name(engine, channel, multi),
            "ph": "M",  # metadata: thread (row) names
            "pid": pid,
            "tid": tid_of(engine, channel),
            "cat": "__metadata",
            "args": {"name": _row_name(engine, channel, multi)},
        }
        for channel in channels
        for engine in _ENGINE_ROWS
    ]
    for s in result.scheduled:
        if s.op.duration <= 0:
            continue
        events.append({
            "name": s.op.tag,
            "ph": "X",  # complete event
            "pid": pid,
            "tid": tid_of(s.op.engine, s.op.channel),
            "ts": s.start * 1e6,       # microseconds
            "dur": s.op.duration * 1e6,
            "cat": tag_category(s.op.tag),
            "args": {"bytes": s.op.nbytes},
        })
    if include_bubbles:
        events.extend(_bubble_events(result, pid, tid_of))
    if host_spans is not None:
        from repro.telemetry.spans import chrome_span_events
        merged = chrome_span_events(host_spans)
        merged.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "simulated timeline"}})
        events = merged + events
    return json.dumps({"traceEvents": events,
                       "displayTimeUnit": "ms"})


def cluster_chrome_trace(events, pid: int = 1) -> str:
    """Chrome ``trace_event`` JSON for one cluster run.

    ``events`` is the ledger's per-job lifecycle stream --
    ``(kind, jid, time)`` tuples with kind ``arrive`` / ``start`` /
    ``preempt`` / ``finish`` (see
    :class:`repro.cluster.simulator._Ledger`).  Each job becomes one
    row (``tid = jid``) of lifecycle slices: ``queued`` from arrival
    (or preemption) until dispatch, ``running`` from dispatch until
    preemption or completion, ``preempted`` marking the
    checkpoint-and-requeue interval.  Fleet-wide ``fault`` events
    (``jid = -1``, e.g. a pool-node loss) render as global instants.
    Times are simulated seconds, exported as microseconds.  A slice
    that ends before it starts raises ``ValueError`` naming the job,
    the slice and both times.
    """
    per_job: dict[int, list[tuple[str, float]]] = {}
    fault_instants: list[float] = []
    for kind, jid, when in events:
        if kind == "fault":
            fault_instants.append(when)
            continue
        per_job.setdefault(jid, []).append((kind, when))

    trace_events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "cluster jobs"}}]
    for when in fault_instants:
        trace_events.append({
            "name": "fault", "cat": "fault", "ph": "i", "s": "p",
            "pid": pid, "tid": 0, "ts": when * 1e6, "args": {}})
    for jid in sorted(per_job):
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": jid,
            "cat": "__metadata", "args": {"name": f"job{jid}"}})

    def slice_event(name: str, jid: int, start: float,
                    end: float) -> dict:
        if end < start:
            raise ValueError(
                f"job {jid}'s {name} slice ends at {end!r} s, before "
                f"it starts at {start!r} s")
        return {
            "name": name, "cat": name, "ph": "X", "pid": pid,
            "tid": jid, "ts": start * 1e6, "dur": (end - start) * 1e6,
            "args": {"jid": jid},
        }

    for jid in sorted(per_job):
        waiting_since: float | None = None
        waiting_as = "queued"
        running_since: float | None = None
        for kind, when in per_job[jid]:
            if kind == "arrive":
                waiting_since = when
                waiting_as = "queued"
            elif kind == "start":
                if waiting_since is not None:
                    trace_events.append(slice_event(
                        waiting_as, jid, waiting_since, when))
                    waiting_since = None
                running_since = when
            elif kind == "preempt":
                if running_since is not None:
                    trace_events.append(slice_event(
                        "running", jid, running_since, when))
                    running_since = None
                waiting_since = when
                waiting_as = "preempted"
            elif kind == "finish":
                if running_since is not None:
                    trace_events.append(slice_event(
                        "running", jid, running_since, when))
                    running_since = None
            else:
                raise ValueError(f"unknown lifecycle event {kind!r}")
    return json.dumps({"traceEvents": trace_events,
                       "displayTimeUnit": "ms"})


def engine_utilization(result: ColumnarTimeline,
                       per_channel: bool = False) -> dict[str, float]:
    """Busy fraction of each engine over the iteration makespan.

    Multi-channel (pipeline) timelines report the *fleet average*:
    total busy time across stages over ``n_stages * makespan``.  With
    ``per_channel=True`` the dict instead carries one
    ``"engine[channel]"`` entry per (engine, channel) pair, each the
    channel's own busy fraction of the makespan -- what the telemetry
    summary table reports for pipeline stages.
    """
    channels = result.channels
    if per_channel:
        if result.makespan <= 0:
            return {f"{engine.value}[{channel}]": 0.0
                    for channel in channels for engine in EngineKind}
        return {
            f"{engine.value}[{channel}]":
                result.busy_time(engine, channel) / result.makespan
            for channel in channels for engine in EngineKind}
    if result.makespan <= 0:
        return {engine.value: 0.0 for engine in EngineKind}
    denominator = result.makespan * len(channels)
    return {engine.value: result.busy_time(engine) / denominator
            for engine in EngineKind}
