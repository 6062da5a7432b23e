"""Differential guard for the compiled zb-auto search.

The functions below ``# --- reference`` are the dict-keyed makespan
evaluator and the rebuild-every-trial coordinate descent that the
compiled, memoized search in :mod:`repro.pipeline.schedules` replaced,
kept verbatim.  The production evaluator must return the same float,
bit for bit, and the production search the same slot programs, on every
input: the search compares makespans with a strict ``<``, so a last-ulp
difference could flip a choice and move a golden or a claim verdict.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.schedules import (OpKind, ScheduleCosts, ScheduleKind,
                                      Slot, StageProgram, build_schedule)
from test_zero_bubble import evaluate_makespan

# --- reference: the replaced implementation, unchanged ---------------


def _f(m: int) -> Slot:
    return Slot(m, True)


def _b(m: int) -> Slot:
    return Slot(m, False)


def _w(m: int) -> Slot:
    return Slot(m, False, OpKind.W)


def _zero_bubble_program(stage: int, n_stages: int, n_microbatches: int,
                         defer: int, drain_w: int) -> StageProgram:
    """1F1B slot order with W split off and deferred as bubble filler.

    ``defer`` bounds how many microbatches may sit between a B and its
    W during the steady state (the weight-grad-input backlog, capped at
    the stage's warmup so memory stays at the 1F1B bound); ``drain_w``
    is how many banked W ops are retired per drain-phase B, filling the
    idle gaps between grad arrivals.  Leftover W ops flush at the tail.
    """
    warmup = min(n_stages - 1 - stage, n_microbatches)
    defer = max(0, min(defer, warmup, n_microbatches))
    slots = [_f(m) for m in range(warmup)]
    next_w = 0

    def retire(limit: int, upto: int) -> None:
        nonlocal next_w
        emitted = 0
        while next_w <= upto and emitted < limit:
            slots.append(_w(next_w))
            next_w += 1
            emitted += 1

    for m in range(n_microbatches - warmup):
        slots.append(_f(warmup + m))
        slots.append(_b(m))
        if m + 1 - next_w > defer:
            retire(m + 1 - next_w - defer, m)
    for m in range(n_microbatches - warmup, n_microbatches):
        slots.append(_b(m))
        retire(drain_w, m)
    retire(n_microbatches - next_w, n_microbatches - 1)
    return StageProgram(stage=stage, slots=tuple(slots))


def _zb_h1_params(n_stages: int,
                  n_microbatches: int) -> list[tuple[int, int]]:
    """The fixed ZB-H1 heuristic: defer by the warmup depth, retire
    one banked W per drain gap."""
    return [(min(n_stages - 1 - s, n_microbatches), 1)
            for s in range(n_stages)]


def reference_makespan(programs: tuple[StageProgram, ...],
                       costs: ScheduleCosts) -> float:
    """Analytic makespan of slot programs under the simulator's model.

    Mirrors the emitter's semantics -- one in-order compute engine per
    stage, F gated on the upstream activation send, B gated on the
    downstream gradient send (or the stage's own F at the loss stage),
    W gated on its own B -- but prices sends as fixed latencies rather
    than occupying a COMM engine.  It is the auto-scheduler's cheap
    inner-loop objective; the found schedule is validated by replaying
    through ``simulate()``.
    """
    n_stages = len(programs)
    cursors = [0] * n_stages
    engine_free = [0.0] * n_stages
    f_done: dict[tuple[int, int], float] = {}
    b_done: dict[tuple[int, int], float] = {}
    total = sum(len(p.slots) for p in programs)
    emitted = 0
    progress = True
    while progress:
        progress = False
        for s in range(n_stages):
            slots = programs[s].slots
            while cursors[s] < len(slots):
                slot = slots[cursors[s]]
                m = slot.microbatch
                if slot.kind is OpKind.F:
                    if s > 0:
                        if (s - 1, m) not in f_done:
                            break
                        ready = f_done[(s - 1, m)] + costs.send_fwd[s - 1]
                    else:
                        ready = 0.0
                    finish = max(engine_free[s], ready) + costs.t_fwd[s]
                    f_done[(s, m)] = finish
                elif slot.kind is OpKind.B:
                    if s < n_stages - 1:
                        if (s + 1, m) not in b_done:
                            break
                        ready = b_done[(s + 1, m)] + costs.send_bwd[s + 1]
                    else:
                        ready = f_done[(s, m)]
                    finish = max(engine_free[s], ready) + costs.t_bwd[s]
                    b_done[(s, m)] = finish
                else:
                    finish = max(engine_free[s], b_done[(s, m)]) \
                        + costs.t_wgrad[s]
                engine_free[s] = finish
                cursors[s] += 1
                emitted += 1
                progress = True
    if emitted != total:
        raise RuntimeError(
            f"schedule deadlocked after {emitted}/{total} slots in "
            "analytic evaluation (inconsistent stage programs)")
    return max(engine_free) if engine_free else 0.0


def reference_auto_params(n_stages: int, n_microbatches: int,
                          costs: ScheduleCosts) \
        -> list[tuple[int, int]]:
    """Coordinate descent over per-stage (defer, drain_w) knobs.

    Starts at the ZB-H1 heuristic and greedily improves one stage at a
    time against the analytic makespan, two sweeps.  Deterministic;
    the deferral depth never exceeds the stage's warmup, keeping the
    weight-grad-input backlog under the 1F1B memory bound.
    """

    def build(params: list[tuple[int, int]]) \
            -> tuple[StageProgram, ...]:
        return tuple(
            _zero_bubble_program(s, n_stages, n_microbatches, d, k)
            for s, (d, k) in enumerate(params))

    params = _zb_h1_params(n_stages, n_microbatches)
    best = reference_makespan(build(params), costs)
    for _ in range(2):
        for s in range(n_stages):
            warmup = min(n_stages - 1 - s, n_microbatches)
            for defer in sorted({0, warmup // 2, warmup}):
                for drain_w in (0, 1, 2, n_microbatches):
                    if (defer, drain_w) == params[s]:
                        continue
                    trial = list(params)
                    trial[s] = (defer, drain_w)
                    span = reference_makespan(build(trial), costs)
                    if span < best * (1.0 - 1e-12):
                        best = span
                        params = trial
    return params


# --- the differential tests -------------------------------------------

#: Few distinct values, so exact ties between stages and ops are common;
#: zeros make whole op kinds or sends free.
_COST_VALUES = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0, 2.0)),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
              allow_infinity=False))


@st.composite
def _cases(draw, kinds=tuple(ScheduleKind)):
    kind = draw(st.sampled_from(kinds))
    n_stages = draw(st.integers(min_value=1, max_value=8))
    n_mb = draw(st.integers(min_value=1, max_value=12))
    per_stage = st.lists(_COST_VALUES, min_size=n_stages,
                         max_size=n_stages).map(tuple)
    costs = ScheduleCosts(
        t_fwd=draw(per_stage), t_bwd=draw(per_stage),
        t_wgrad=draw(per_stage), send_fwd=draw(per_stage),
        send_bwd=draw(per_stage))
    return kind, n_stages, n_mb, costs


def _slots(programs) -> list[tuple[Slot, ...]]:
    return [program.slots for program in programs]


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(case=_cases())
    def test_makespan_is_bit_identical(self, case):
        kind, n_stages, n_mb, costs = case
        programs = build_schedule(kind, n_stages, n_mb, costs).programs
        expected = reference_makespan(programs, costs)
        assert evaluate_makespan(programs, costs).hex() \
            == expected.hex()

    @settings(max_examples=40, deadline=None)
    @given(case=_cases(kinds=(ScheduleKind.ZB_AUTO,)))
    def test_auto_search_picks_the_reference_programs(self, case):
        _, n_stages, n_mb, costs = case
        params = reference_auto_params(n_stages, n_mb, costs)
        expected = [
            _zero_bubble_program(s, n_stages, n_mb, d, k).slots
            for s, (d, k) in enumerate(params)]
        schedule = build_schedule(ScheduleKind.ZB_AUTO, n_stages, n_mb,
                                  costs)
        assert _slots(schedule.programs) == expected

    def test_zb_h1_programs_match_the_reference_generator(self):
        for n_stages in range(1, 9):
            for n_mb in range(1, 13):
                expected = [
                    _zero_bubble_program(s, n_stages, n_mb, d, k).slots
                    for s, (d, k)
                    in enumerate(_zb_h1_params(n_stages, n_mb))]
                schedule = build_schedule(ScheduleKind.ZB_H1, n_stages,
                                          n_mb)
                assert _slots(schedule.programs) == expected

    def test_sparse_microbatch_ids_evaluate_like_the_reference(self):
        """Hand-built programs may skip or reorder microbatch ids; the
        evaluator must not assume ``range(M)``."""
        programs = (
            StageProgram(stage=0, slots=(
                Slot(7, True), Slot(3, True), Slot(7, False),
                Slot(3, False), Slot(7, False, OpKind.W),
                Slot(3, False, OpKind.W))),
            StageProgram(stage=1, slots=(
                Slot(7, True), Slot(7, False), Slot(3, True),
                Slot(3, False), Slot(3, False, OpKind.W),
                Slot(7, False, OpKind.W))),
        )
        costs = ScheduleCosts(
            t_fwd=(1.0, 2.0), t_bwd=(2.0, 1.5), t_wgrad=(0.5, 0.25),
            send_fwd=(0.125, 0.0), send_bwd=(0.0, 0.375))
        assert evaluate_makespan(programs, costs).hex() \
            == reference_makespan(programs, costs).hex()
