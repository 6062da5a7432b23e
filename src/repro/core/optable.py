"""Columnar (struct-of-arrays) op tables: the simulator core.

A campaign grid schedules hundreds of thousands of ops, and per-op
Python objects (allocation, validation, attribute walks) would
dominate the wall clock long before the arithmetic does.  This module
keeps the *data* in parallel columns instead:

* :class:`OpTable` -- the append-only struct-of-arrays op container
  every emitter fills; it links each op to the previous op on its
  (engine, channel) slot as the op is added (``slot_prev``), and a
  table re-priced from it shares its structural columns until its
  first append;
* :func:`schedule_ops` -- the deterministic list-scheduler recurrence,
  run as a tight loop over the columns that only takes maxima and adds
  (the recurrence is a sequential dependency chain, so a vectorized
  level-sweep would lose: the evaluated graphs average under two ops
  per dependency level);
* :class:`ColumnarTimeline` -- the scheduled result (``makespan``,
  ``busy``, ``busy_time``, ``finish_of``, ``slot_free``, ``ops_on``,
  ``channels``, and, derived on first use, the per-channel busy
  seconds and the ``scheduled`` tuple of
  :class:`~repro.core.timeline.ScheduledOp` for trace export).
"""

from __future__ import annotations

from repro.core.timeline import EngineKind, Op, ScheduledOp
from repro.telemetry.registry import NOOP, on_activation

#: Telemetry probes for :func:`schedule_ops`, updated once per call
#: *after* the scheduling loop -- the tight loop itself is untouched.
_SCHED_RUNS = NOOP
_SCHED_OPS = NOOP
_SCHED_TABLE_OPS = NOOP


def _bind_probes(registry) -> None:
    global _SCHED_RUNS, _SCHED_OPS, _SCHED_TABLE_OPS
    if registry is None:
        _SCHED_RUNS = _SCHED_OPS = _SCHED_TABLE_OPS = NOOP
    else:
        _SCHED_RUNS = registry.counter(
            "repro_schedule_runs_total",
            "schedule_ops invocations")
        _SCHED_OPS = registry.counter(
            "repro_schedule_ops_total",
            "ops scheduled by schedule_ops")
        _SCHED_TABLE_OPS = registry.histogram(
            "repro_schedule_table_ops",
            "ops per scheduled op table",
            buckets=(64, 128, 256, 512, 1024, 2048, 4096, 8192,
                     16384))


on_activation(_bind_probes)

#: Stable integer codes for the four engine kinds (column dtype int8).
ENGINE_CODE: dict[EngineKind, int] = {
    EngineKind.COMPUTE: 0,
    EngineKind.DMA_OUT: 1,
    EngineKind.DMA_IN: 2,
    EngineKind.COMM: 3,
}

#: Inverse of :data:`ENGINE_CODE`, indexable by code.
CODE_ENGINE: tuple[EngineKind, ...] = tuple(
    sorted(ENGINE_CODE, key=ENGINE_CODE.__getitem__))


class OpTable:
    """Struct-of-arrays op container.

    Columns are plain Python lists (appends are the hot path, and the
    scheduler and the statistics collectors walk them op by op).
    :meth:`add` validates before appending, so a rejected op leaves
    every column untouched.
    """

    __slots__ = ("codes", "durations", "deps", "tags", "nbytes",
                 "channels", "slot_prev", "_slot_last", "_shared", "_ops",
                 "_prefetch_index")

    def __init__(self) -> None:
        #: Each op's :data:`ENGINE_CODE` (the ``ops`` view maps it back
        #: through :data:`CODE_ENGINE`).
        self.codes: list[int] = []
        self.durations: list[float] = []
        self.deps: list[tuple[int, ...]] = []
        self.tags: list[str] = []
        self.nbytes: list[int] = []
        self.channels: list[int] = []
        #: Each op's previous op on its (engine, channel) slot, -1 for
        #: the slot's first op.  An engine runs its ops in issue order,
        #: so this is the op whose finish frees the slot.
        self.slot_prev: list[int] = []
        #: Slot key ``channel * 4 + code`` -> the slot's last op.
        self._slot_last: dict[int, int] = {}
        #: True while every column but ``durations`` (and the slot map)
        #: is shared with other tables (see :meth:`_repriced`); the
        #: first :meth:`add` copies them.
        self._shared = False
        self._ops: list[Op] | None = None
        #: The structural index :func:`repro.vmem.prefetch.
        #: collect_prefetch_stats` reads (built on first use; shared by
        #: every table re-priced from one emitted structure).
        self._prefetch_index = None

    def add(self, engine: EngineKind, duration: float, deps: list[int],
            tag: str, nbytes: int = 0, channel: int = 0) -> int:
        """Append one op; returns its uid (dense, in issue order)."""
        uid = len(self.durations)
        if duration < 0:
            raise ValueError(f"op {tag}: negative duration")
        if nbytes < 0:
            raise ValueError(f"op {tag}: negative byte count")
        if channel < 0:
            raise ValueError(f"op {tag}: negative channel")
        dep_tuple = tuple(deps)
        for dep in dep_tuple:
            if dep >= uid:
                raise ValueError(
                    f"op {tag}: dependency on a later op (cycle)")
            if dep < 0:
                raise ValueError(f"op {tag}: negative dependency uid")
        if self._shared:
            self._own_columns()
        code = ENGINE_CODE[engine]
        slot = channel * 4 + code
        slot_last = self._slot_last
        self.slot_prev.append(slot_last.get(slot, -1))
        slot_last[slot] = uid
        self.codes.append(code)
        self.durations.append(duration)
        self.deps.append(dep_tuple)
        self.tags.append(tag)
        self.nbytes.append(nbytes)
        self.channels.append(channel)
        self._prefetch_index = None
        return uid

    def __len__(self) -> int:
        return len(self.durations)

    def _own_columns(self) -> None:
        """Copy the shared structural columns and slot map, so an
        append changes no other table."""
        self.codes = self.codes.copy()
        self.deps = self.deps.copy()
        self.tags = self.tags.copy()
        self.nbytes = self.nbytes.copy()
        self.channels = self.channels.copy()
        self.slot_prev = self.slot_prev.copy()
        self._slot_last = self._slot_last.copy()
        self._shared = False

    def _repriced(self, durations: list[float]) -> "OpTable":
        """A table with ``durations`` as its duration column (checked
        by the caller) that shares every other column of this one,
        slot links and the structural prefetch index included.  Both
        tables copy the shared columns on their next :meth:`add`, so
        an append to one never changes the other."""
        table = OpTable()
        table.codes = self.codes
        table.durations = durations
        table.deps = self.deps
        table.tags = self.tags
        table.nbytes = self.nbytes
        table.channels = self.channels
        table.slot_prev = self.slot_prev
        table._slot_last = self._slot_last
        table._prefetch_index = self._prefetch_index
        table._shared = self._shared = True
        return table

    @property
    def ops(self) -> list[Op]:
        """Materialized :class:`Op` view for trace export and tests
        that introspect tags and deps (built lazily, rebuilt only after
        the append-only table grows)."""
        if self._ops is None or len(self._ops) != len(self.durations):
            self._ops = [
                Op(uid=i, engine=CODE_ENGINE[self.codes[i]],
                   duration=self.durations[i], deps=self.deps[i],
                   tag=self.tags[i], nbytes=self.nbytes[i],
                   channel=self.channels[i])
                for i in range(len(self.durations))]
        return self._ops


class ColumnarTimeline:
    """Scheduled outcome of an :class:`OpTable`.

    ``busy`` aggregates across channels (the SPMD view);
    ``busy_time(engine, channel)`` and ``busy_per_channel`` keep the
    per-stage split pipeline metrics need.  The per-channel sums (one
    engine's at a time) and ``scheduled`` are derived from the columns
    on first use, so consumers that never read them (the ``simulate()``
    path of a training or inference cell) never pay for them.
    """

    __slots__ = ("table", "start", "finish", "makespan", "busy",
                 "_channel_busy", "_scheduled")

    def __init__(self, table: OpTable, start: list[float],
                 finish: list[float], makespan: float,
                 busy: dict[EngineKind, float]) -> None:
        self.table = table
        self.start = start
        self.finish = finish
        self.makespan = makespan
        self.busy = busy
        #: Engine code -> channel -> busy seconds, per code on first use.
        self._channel_busy: dict[int, dict[int, float]] = {}
        self._scheduled: tuple[ScheduledOp, ...] | None = None

    # -- Per-op surface ---------------------------------------------------

    def slot_free(self, uid: int) -> float:
        """When op ``uid``'s (engine, channel) slot fell free: the
        finish of its slot predecessor (``table.slot_prev``), 0.0 for
        the slot's first op -- the engine-ready time the scheduler saw
        when it issued the op."""
        prev = self.table.slot_prev[uid]
        return self.finish[prev] if prev >= 0 else 0.0

    def _busy_on(self, code: int) -> dict[int, float]:
        """Seconds each channel of the engine with this code executed
        ops, summed in uid order (derived on first use)."""
        busy = self._channel_busy.get(code)
        if busy is None:
            busy = self._channel_busy[code] = {}
            table = self.table
            for op_code, channel, duration in zip(
                    table.codes, table.channels,
                    table.durations[:len(self.finish)]):
                if op_code == code:
                    busy[channel] = busy.get(channel, 0.0) + duration
        return busy

    @property
    def busy_per_channel(self) -> dict[tuple[EngineKind, int], float]:
        """Seconds each (engine, channel) slot executed ops, summed in
        uid order."""
        return {(engine, channel): seconds
                for engine, code in ENGINE_CODE.items()
                for channel, seconds in self._busy_on(code).items()}

    @property
    def scheduled(self) -> tuple[ScheduledOp, ...]:
        """Per-op schedule as :class:`ScheduledOp` objects (lazy)."""
        if self._scheduled is None:
            ops = self.table.ops
            self._scheduled = tuple(
                ScheduledOp(op=ops[i], start=self.start[i],
                            finish=self.finish[i])
                for i in range(len(ops)))
        return self._scheduled

    def finish_of(self, uid: int) -> float:
        """Finish time (seconds) of the op with this uid."""
        return self.finish[uid]

    def ops_on(self, engine: EngineKind,
               channel: int | None = None) -> list[ScheduledOp]:
        """Scheduled ops of one engine (optionally one channel)."""
        return [s for s in self.scheduled if s.op.engine is engine
                and (channel is None or s.op.channel == channel)]

    def busy_time(self, engine: EngineKind,
                  channel: int | None = None) -> float:
        """Total seconds the engine executed ops (optionally per
        channel)."""
        if channel is None:
            return self.busy.get(engine, 0.0)
        return self._busy_on(ENGINE_CODE[engine]).get(channel, 0.0)

    @property
    def channels(self) -> tuple[int, ...]:
        """Channel indices present, ascending (SPMD timelines: (0,))."""
        return tuple(sorted(set(self.table.channels))) or (0,)


def schedule_ops(table: OpTable) -> ColumnarTimeline:
    """List-schedule an :class:`OpTable`; engines serialize, deps must
    finish first.

    Op *i* starts at the latest finish among its slot predecessor
    (``table.slot_prev[i]``; none for a slot's first op) and its deps,
    or at 0.0 when there are none, and finishes ``duration[i]`` later;
    busy times accumulate in uid order.  The recurrence is a
    sequential chain, so it runs as one tight loop over the columns,
    taking only maxima and adds: ``finish`` carries one trailing 0.0,
    which a slot's first op reads through its -1 link.
    """
    codes = table.codes
    durations = table.durations
    deps = table.deps
    slot_prev = table.slot_prev
    n = len(durations)
    busy_by_code: list[float] = [0.0, 0.0, 0.0, 0.0]
    start: list[float] = [0.0] * n
    finish: list[float] = [0.0] * (n + 1)

    for i in range(n):
        ready = finish[slot_prev[i]]
        for d in deps[i]:
            f = finish[d]
            if f > ready:
                ready = f
        start[i] = ready
        duration = durations[i]
        finish[i] = ready + duration
        busy_by_code[codes[i]] += duration
    finish.pop()

    busy = {engine: busy_by_code[code]
            for engine, code in ENGINE_CODE.items()}
    makespan = max(finish, default=0.0)
    _SCHED_RUNS.inc()
    _SCHED_OPS.inc(n)
    _SCHED_TABLE_OPS.observe(n)
    return ColumnarTimeline(table=table, start=start, finish=finish,
                            makespan=makespan, busy=busy)
