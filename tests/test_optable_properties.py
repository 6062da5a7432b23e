"""Property tests of the columnar op table and its scheduler.

Hypothesis drives random DAG-shaped op programs through
:func:`schedule_ops` and holds the schedule to exact invariants:

* identical start/finish/busy/makespan to a plain reference list
  scheduler over the raw program (bitwise float equality -- both walk
  ops in uid order and accumulate in the same sequence);
* every op starts at ``max(slot_free, latest dep finish, 0.0)``
  and finishes ``duration`` later, and ``slot_free`` is exactly
  the engine-slot free time the scheduler saw when the op was issued;
* busy totals are the uid-order sums of the durations;
* stable event order: ``ops_on`` never reorders ops, even across
  equal timestamps (zero-duration ops pile up on one instant);
* ``slot_prev`` links each op to the previous op on its (engine,
  channel) slot, in every table and every re-priced copy.

The recurrence and busy-sum invariants alone already fix the schedule
uniquely, bit for bit.  The same reference scheduler also schedules
every op table of the paper's b512 grid and of GPT2 pipelines under
every schedule kind identically.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.optable import CODE_ENGINE, OpTable, schedule_ops
from repro.core.schedule import _OpStructure
from repro.core.simulator import iteration_timeline
from repro.core.timeline import EngineKind
from repro.dnn.registry import BENCHMARK_NAMES
from repro.pipeline.schedules import SCHEDULE_ORDER
from repro.training.parallel import ParallelStrategy

ENGINES = tuple(EngineKind)


@st.composite
def op_programs(draw):
    """A random valid op program: (engine, duration, deps, channel)."""
    n = draw(st.integers(min_value=0, max_value=40))
    program = []
    for uid in range(n):
        engine = draw(st.sampled_from(ENGINES))
        # Mix zero durations in aggressively: equal timestamps are the
        # interesting ordering case.
        duration = draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False)))
        deps = (draw(st.lists(st.integers(0, uid - 1), max_size=4,
                              unique=True))
                if uid else [])
        channel = draw(st.integers(min_value=0, max_value=2))
        nbytes = draw(st.integers(min_value=0, max_value=1 << 20))
        program.append((engine, duration, deps, channel, nbytes))
    return program


def build_table(program) -> OpTable:
    table = OpTable()
    for i, (engine, duration, deps, channel, nbytes) in enumerate(program):
        uid = table.add(engine, duration, deps, f"op{i}", nbytes=nbytes,
                        channel=channel)
        assert uid == i
    return table


def reference_schedule(program) -> dict:
    """Plain list scheduler over the raw program tuples.

    Shares no code with :func:`schedule_ops`: slots are keyed by
    ``(engine, channel)`` and every quantity is accumulated in uid
    order, so an exact match pins the columnar scheduler bit for bit.
    """
    slot_free: dict[tuple[EngineKind, int], float] = {}
    busy = dict.fromkeys(EngineKind, 0.0)
    busy_per_channel: dict[tuple[EngineKind, int], float] = {}
    prev_slot_finish: list[float] = []
    start: list[float] = []
    finish: list[float] = []
    for engine, duration, deps, channel, _ in program:
        slot = (engine, channel)
        ready = max((finish[d] for d in deps), default=0.0)
        begin = max(slot_free.get(slot, 0.0), ready, 0.0)
        prev_slot_finish.append(slot_free.get(slot, 0.0))
        start.append(begin)
        finish.append(begin + duration)
        slot_free[slot] = finish[-1]
        busy[engine] += duration
        busy_per_channel[slot] = busy_per_channel.get(slot, 0.0) + duration
    return {"start": start, "finish": finish, "busy": busy,
            "busy_per_channel": busy_per_channel,
            "prev_slot_finish": prev_slot_finish,
            "makespan": max(finish, default=0.0),
            "channels": tuple(sorted({p[3] for p in program})) or (0,)}


def prev_slot_finish(timeline) -> list[float]:
    """The timeline's ``slot_free`` of every op, in uid order."""
    return [timeline.slot_free(uid) for uid in range(len(timeline.finish))]


def reference_slot_prev(program) -> list[int]:
    """Each op's previous uid on its (engine, channel) slot, or -1."""
    last: dict[tuple[EngineKind, int], int] = {}
    links = []
    for uid, (engine, _, _, channel, _) in enumerate(program):
        links.append(last.get((engine, channel), -1))
        last[engine, channel] = uid
    return links


def table_program(table: OpTable) -> list[tuple]:
    """An op table's columns as a raw program for the reference."""
    return [(CODE_ENGINE[code], duration, deps, channel, nbytes)
            for code, duration, deps, channel, nbytes in zip(
                table.codes, table.durations, table.deps,
                table.channels, table.nbytes)]


class TestSchedulerEquivalence:
    @given(op_programs())
    @settings(max_examples=100, deadline=None)
    def test_schedules_identically(self, program):
        ref = reference_schedule(program)
        col = schedule_ops(build_table(program))

        assert col.makespan == ref["makespan"]
        assert col.busy == ref["busy"]
        for (engine, channel), busy in ref["busy_per_channel"].items():
            assert col.busy_time(engine, channel) == busy
        assert col.busy_per_channel == ref["busy_per_channel"]
        assert col.channels == ref["channels"]
        for uid in range(len(program)):
            assert col.finish_of(uid) == ref["finish"][uid]
            assert col.scheduled[uid].start == ref["start"][uid]

    @given(op_programs())
    @settings(max_examples=75, deadline=None)
    def test_no_reordering_across_equal_timestamps(self, program):
        """``ops_on`` preserves issue (uid) order.

        With many zero-duration ops sharing one timestamp, a sort by
        start time could legally permute them; the contract is
        stronger -- event order IS uid order, always.
        """
        table = build_table(program)
        col = schedule_ops(table)
        for engine in ENGINES:
            for channel in (None, 0, 1, 2):
                uids = [s.op.uid for s in col.ops_on(engine, channel)]
                assert uids == [
                    uid for uid in range(len(program))
                    if table.ops[uid].engine is engine
                    and channel in (None, table.channels[uid])]

    @given(op_programs())
    @settings(max_examples=100, deadline=None)
    def test_prev_slot_finish_matches_scheduler_state(self, program):
        """The schedule is exactly the list-scheduling recurrence."""
        table = build_table(program)
        col = schedule_ops(table)
        slot_free: dict[tuple[EngineKind, int], float] = {}
        busy = dict.fromkeys(EngineKind, 0.0)
        busy_per_channel: dict[tuple[EngineKind, int], float] = {}
        for uid in range(len(program)):
            slot = (table.ops[uid].engine, table.channels[uid])
            duration = table.durations[uid]
            assert col.slot_free(uid) == slot_free.get(slot, 0.0)
            assert col.start[uid] == max(
                col.slot_free(uid),
                max((col.finish[d] for d in table.deps[uid]),
                    default=0.0),
                0.0)
            assert col.finish[uid] == col.start[uid] + duration
            slot_free[slot] = col.finish_of(uid)
            busy[slot[0]] += duration
            busy_per_channel[slot] = busy_per_channel.get(slot, 0.0) \
                + duration
        assert col.busy == busy
        assert col.busy_per_channel == busy_per_channel
        assert col.makespan == max(col.finish, default=0.0)


class TestSlotLinks:
    """``slot_prev`` is structural: recorded once, at emission, and
    carried by every re-priced copy."""

    @given(op_programs())
    @settings(max_examples=100, deadline=None)
    def test_links_previous_op_on_same_slot(self, program):
        assert build_table(program).slot_prev \
            == reference_slot_prev(program)

    @given(op_programs())
    @settings(max_examples=100, deadline=None)
    def test_derived_views_match_reference(self, program):
        ref = reference_schedule(program)
        col = schedule_ops(build_table(program))
        assert prev_slot_finish(col) == ref["prev_slot_finish"]
        assert col.busy_per_channel == ref["busy_per_channel"]

    @given(op_programs(), st.sampled_from(ENGINES),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_repriced_copy_links_appended_op(self, program, engine,
                                             channel):
        structure = _OpStructure()
        structure.table = table = build_table(program)
        columns = (table.codes.copy(), table.durations.copy(),
                   table.deps.copy(), table.tags.copy(),
                   table.nbytes.copy(), table.channels.copy(),
                   table.slot_prev.copy())
        copy = structure.priced(lambda primitive, nbytes: 0.0,
                                lambda nbytes: 0.0)
        uid = copy.add(engine, 1.0, [], "late", channel=channel)
        extended = program + [(engine, 1.0, [], channel, 0)]
        assert uid == len(program)
        assert copy.slot_prev == reference_slot_prev(extended)
        assert (table.codes, table.durations, table.deps, table.tags,
                table.nbytes, table.channels, table.slot_prev) == columns
        ref = reference_schedule(extended)
        col = schedule_ops(copy)
        assert col.finish == ref["finish"]
        assert prev_slot_finish(col) == ref["prev_slot_finish"]

    def test_priced_table_shares_columns_until_first_append(self):
        structure = _OpStructure()
        table = structure.table
        table.add(EngineKind.COMPUTE, 1.0, [], "fwd:a")
        structure.transfer(EngineKind.DMA_OUT, 64, [0], "offload:a")
        table.add(EngineKind.COMPUTE, 2.0, [0], "fwd:b", channel=1)
        priced, sibling = (
            structure.priced(lambda primitive, nbytes: 0.0,
                             lambda nbytes: 0.5) for _ in range(2))
        names = ("codes", "deps", "tags", "nbytes", "channels",
                 "slot_prev", "_slot_last")
        assert all(getattr(priced, name) is getattr(table, name)
                   for name in names)
        assert priced.durations == [1.0, 0.5, 2.0] == sibling.durations
        assert priced.durations is not table.durations

        priced.add(EngineKind.COMPUTE, 1.0, [2], "late", channel=1)
        assert not any(getattr(priced, name) is getattr(table, name)
                       for name in names)
        assert all(getattr(sibling, name) is getattr(table, name)
                   for name in names)
        assert priced.slot_prev == [-1, -1, -1, 2]
        assert table.slot_prev == sibling.slot_prev == [-1, -1, -1]
        # The structure copies too once it has been priced from.
        table.add(EngineKind.COMM, 0.0, [0], "structure-late")
        assert len(table.codes) == 4
        assert len(sibling.codes) == len(sibling.durations) == 3


def _real_tables():
    """Every op table of the paper's b512 grid, then GPT2 b64 on four
    stages under each schedule kind on DC-DLA and MC-DLA(B)."""
    for design in DESIGN_ORDER:
        for network in BENCHMARK_NAMES:
            for strategy in (ParallelStrategy.DATA,
                             ParallelStrategy.MODEL):
                yield iteration_timeline(design_point(design), network,
                                         512, strategy).table
    for design in ("DC-DLA", "MC-DLA(B)"):
        for kind in SCHEDULE_ORDER:
            config = dataclasses.replace(
                design_point(design), pipeline_stages=4,
                pipeline_schedule=kind)
            yield iteration_timeline(config, "GPT2", 64,
                                     ParallelStrategy.PIPELINE).table


class TestRealTables:
    def test_every_table_schedules_like_the_reference(self):
        tables = 0
        for table in _real_tables():
            program = table_program(table)
            ref = reference_schedule(program)
            col = schedule_ops(table)
            assert table.slot_prev == reference_slot_prev(program)
            assert col.start == ref["start"]
            assert col.finish == ref["finish"]
            assert col.busy == ref["busy"]
            assert col.busy_per_channel == ref["busy_per_channel"]
            assert prev_slot_finish(col) == ref["prev_slot_finish"]
            assert col.makespan == ref["makespan"]
            tables += 1
        assert tables == 96 + 2 * len(SCHEDULE_ORDER)


def column_lengths(table: OpTable) -> set[int]:
    return {len(column) for column in (
        table.codes, table.durations, table.deps, table.tags,
        table.nbytes, table.channels, table.slot_prev)}


class TestContainerParity:
    """A table's columns stay in step, and its per-op views mirror
    them."""

    def test_validation_parity_forward_dep(self):
        table = OpTable()
        table.add(EngineKind.COMPUTE, 1.0, [], "a")
        try:
            table.add(EngineKind.COMPUTE, 1.0, [5], "b")
        except ValueError as exc:
            assert "cycle" in str(exc)
        else:  # pragma: no cover - failure path
            raise AssertionError("forward dep accepted")
        assert column_lengths(table) == {1}

    def test_validation_parity_negative_dep(self):
        """A negative dep uid would read ``finish[-1]``: the previous
        op's finish, or an ``IndexError`` on a table's first op."""
        table = OpTable()
        with pytest.raises(ValueError, match="negative dependency uid"):
            table.add(EngineKind.COMPUTE, 1.0, [-1], "first")
        assert column_lengths(table) == {0}
        table.add(EngineKind.COMPUTE, 2.0, [], "a")
        with pytest.raises(ValueError,
                           match="op b: negative dependency uid"):
            table.add(EngineKind.COMM, 1.0, [0, -1], "b")
        assert column_lengths(table) == {1}
        table.add(EngineKind.COMM, 1.0, [0], "b")
        assert schedule_ops(table).start == [0.0, 2.0]

    def test_validation_parity_negative_fields(self):
        for kwargs in ({"duration": -1.0}, {"nbytes": -1},
                       {"channel": -1}):
            table = OpTable()
            base = {"engine": EngineKind.COMPUTE, "duration": 1.0,
                    "deps": [], "tag": "x", "nbytes": 0, "channel": 0,
                    **kwargs}
            try:
                table.add(base.pop("engine"), base.pop("duration"),
                          base.pop("deps"), base.pop("tag"), **base)
            except ValueError:
                assert column_lengths(table) == {0}
                continue
            raise AssertionError(  # pragma: no cover
                f"OpTable accepted {kwargs}")

    def test_lazy_ops_materialization(self):
        table = build_table(
            [(EngineKind.COMPUTE, 1.0, [], 0, 0),
             (EngineKind.COMM, 0.5, [0], 1, 16)])
        ops = table.ops
        assert ops is table.ops  # cached
        assert [o.uid for o in ops] == [0, 1]
        assert ops[1].deps == (0,) and ops[1].channel == 1
        table.add(EngineKind.DMA_OUT, 0.1, [1], "late")
        assert len(table.ops) == 3  # cache invalidated by add
