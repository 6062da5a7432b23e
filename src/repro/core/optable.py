"""Columnar (struct-of-arrays) op tables: the simulator core.

A campaign grid schedules hundreds of thousands of ops, and per-op
Python objects (allocation, validation, attribute walks) would
dominate the wall clock long before the arithmetic does.  This module
keeps the *data* in parallel columns instead:

* :class:`OpTable` -- the append-only struct-of-arrays op container
  every emitter fills;
* :func:`schedule_ops` -- the deterministic list-scheduler recurrence,
  run as a tight loop over the columns (the recurrence is a sequential
  dependency chain, so a vectorized level-sweep would lose: the
  evaluated graphs average under two ops per dependency level);
* :class:`ColumnarTimeline` -- the scheduled result (``makespan``,
  ``busy``, ``busy_per_channel``, ``busy_time``, ``finish_of``,
  ``ops_on``, ``channels``, and a lazily materialized ``scheduled``
  tuple of :class:`~repro.core.timeline.ScheduledOp` for trace
  export).
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
                 "channels", "_ops", "_prefetch_index")

    def __init__(self) -> None:
        #: Each op's :data:`ENGINE_CODE` -- the scheduler keys its slot
        #: dicts on these (int hashing beats enum hashing by an order
        #: of magnitude over a campaign's worth of ops).
        self.codes: list[int] = []
        self.durations: list[float] = []
        self.deps: list[tuple[int, ...]] = []
        self.tags: list[str] = []
        self.nbytes: list[int] = []
        self.channels: list[int] = []
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
        self.codes.append(ENGINE_CODE[engine])
        self.durations.append(duration)
        self.deps.append(dep_tuple)
        self.tags.append(tag)
        self.nbytes.append(nbytes)
        self.channels.append(channel)
        self._prefetch_index = None
        return uid

    def __len__(self) -> int:
        return len(self.durations)

    def _repriced(self, durations: list[float]) -> "OpTable":
        """A copy of this table with ``durations`` as its duration
        column (checked by the caller).  Every other column is copied,
        so appending to the copy never changes this table; the
        structural prefetch index is shared."""
        table = OpTable()
        table.codes = self.codes.copy()
        table.durations = durations
        table.deps = self.deps.copy()
        table.tags = self.tags.copy()
        table.nbytes = self.nbytes.copy()
        table.channels = self.channels.copy()
        table._prefetch_index = self._prefetch_index
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
    ``busy_per_channel`` keeps the per-stage split pipeline metrics
    need.  ``scheduled`` materializes per-op objects lazily, so
    consumers that never iterate ops (the ``simulate()`` path) never
    pay for them.
    """

    __slots__ = ("table", "start", "finish", "prev_slot_finish",
                 "makespan", "busy", "busy_per_channel", "_scheduled")

    def __init__(self, table: OpTable, start: list[float],
                 finish: list[float], prev_slot_finish: list[float],
                 makespan: float, busy: dict[EngineKind, float],
                 busy_per_channel: dict[tuple[EngineKind, int], float]) \
            -> None:
        self.table = table
        self.start = start
        self.finish = finish
        #: Per op: the finish time of the previous op on its
        #: (engine, channel) slot, 0.0 for the slot's first op.  The
        #: prefetch-stats collector needs it to separate engine
        #: serialization from dependency stalls.
        self.prev_slot_finish = prev_slot_finish
        self.makespan = makespan
        self.busy = busy
        self.busy_per_channel = busy_per_channel
        self._scheduled: tuple[ScheduledOp, ...] | None = None

    # -- Per-op surface ---------------------------------------------------

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
        return self.busy_per_channel.get((engine, channel), 0.0)

    @property
    def channels(self) -> tuple[int, ...]:
        """Channel indices present, ascending (SPMD timelines: (0,))."""
        return tuple(sorted(set(self.table.channels))) or (0,)


def schedule_ops(table: OpTable) -> ColumnarTimeline:
    """List-schedule an :class:`OpTable`; engines serialize, deps must
    finish first.

    Op *i* starts at ``max(prev_slot_finish[i], finish of its deps,
    0.0)`` and finishes ``duration[i]`` later, where
    ``prev_slot_finish[i]`` is the finish of the previous op on its
    (engine, channel) slot; busy times accumulate in uid order.  The
    recurrence is a sequential chain, so it runs as one tight loop
    over the columns.
    """
    codes = table.codes
    durations = table.durations
    deps = table.deps
    tab_channels = table.channels

    # Slot state indexed by engine code; dict keys are plain-int
    # channels (enum-keyed dicts would hash the enum several times per
    # op -- measurable over a campaign grid).
    free_by_code: list[dict[int, float]] = [{}, {}, {}, {}]
    busy_by_code: list[float] = [0.0, 0.0, 0.0, 0.0]
    busy_ch_by_code: list[dict[int, float]] = [{}, {}, {}, {}]
    finish: list[float] = []
    start: list[float] = []
    prev_slot: list[float] = []
    finish_append = finish.append
    start_append = start.append
    prev_append = prev_slot.append

    for i in range(len(durations)):
        ready = 0.0
        for d in deps[i]:
            f = finish[d]
            if f > ready:
                ready = f
        code = codes[i]
        channel = tab_channels[i]
        slots = free_by_code[code]
        free = slots.get(channel, 0.0)
        begin = free if free > ready else ready
        duration = durations[i]
        end = begin + duration
        slots[channel] = end
        busy_by_code[code] += duration
        busy_ch = busy_ch_by_code[code]
        busy_ch[channel] = busy_ch.get(channel, 0.0) + duration
        prev_append(free)
        start_append(begin)
        finish_append(end)

    busy = {engine: busy_by_code[code]
            for engine, code in ENGINE_CODE.items()}
    busy_per_channel = {
        (CODE_ENGINE[code], channel): seconds
        for code in range(4)
        for channel, seconds in busy_ch_by_code[code].items()}
    makespan = max(finish, default=0.0)
    _SCHED_RUNS.inc()
    _SCHED_OPS.inc(len(durations))
    _SCHED_TABLE_OPS.observe(len(durations))
    return ColumnarTimeline(table=table, start=start, finish=finish,
                            prev_slot_finish=prev_slot,
                            makespan=makespan, busy=busy,
                            busy_per_channel=busy_per_channel)

