"""Microbatch schedule generation: GPipe, 1F1B, and zero-bubble kinds.

A :class:`PipelineSchedule` is pure structure -- per-stage ordered
slots of microbatch work, no times attached.  The two classic
schedules share the same dependency graph (so, absent memory effects,
the same fill/drain bubble: the well-known ``(P-1) * (t_f + t_b)`` of
both GPipe and 1F1B), but differ sharply in *activation lifetime*:
fill-drain keeps every microbatch's stash alive across the whole
forward phase (peak ``M`` in flight), while 1F1B caps stage *s* at
``P - s`` microbatches.  That lifetime gap is what the
memory-virtualization runtime turns into a measurable bubble gap --
long-lived stashes are offloaded and their prefetches stall backward
compute (:mod:`repro.pipeline.lowering`).

The zero-bubble kinds additionally split each backward into an
activation-gradient op (``B``, on the critical path: it feeds the
upstream grad send) and a weight-gradient op (``W``, deferrable
filler).  Deferring ``W`` shortens the stage-to-stage backward chain
to ``t_B`` and spends the banked ``t_W`` inside the fill/drain idle,
after the style of the ZB-H1 schedule (sail-sg zero-bubble).  The
activation stash is still freed at ``B``; only the (smaller) weight
-gradient inputs are held until ``W``, so the deferral depth is capped
at the stage's 1F1B warmup to stay under the same memory bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.enums import Enum


class ScheduleKind(Enum):
    GPIPE = "gpipe"
    ONE_F_ONE_B = "1f1b"
    ZB_H1 = "zb-h1"
    INTERLEAVED = "interleaved"
    ZB_AUTO = "zb-auto"

    @property
    def splits_wgrad(self) -> bool:
        """Whether the kind emits separate B (dX) and W (dW) ops."""
        return self in _SPLIT_KINDS

    @property
    def virtual_chunks(self) -> int:
        """Virtual stages hosted per device (Megatron-style vpp)."""
        return 2 if self is ScheduleKind.INTERLEAVED else 1


_SPLIT_KINDS = frozenset({ScheduleKind.ZB_H1, ScheduleKind.INTERLEAVED,
                          ScheduleKind.ZB_AUTO})

#: Canonical kind values in presentation order.
SCHEDULE_ORDER = tuple(kind.value for kind in ScheduleKind)

#: Accepted spellings -> canonical ``ScheduleKind`` values.
SCHEDULE_ALIASES = {
    "gpipe": "gpipe",
    "fill-drain": "gpipe",
    "1f1b": "1f1b",
    "one-f-one-b": "1f1b",
    "zb-h1": "zb-h1",
    "zb": "zb-h1",
    "zero-bubble": "zb-h1",
    "interleaved": "interleaved",
    "vpp": "interleaved",
    "zb-v": "interleaved",
    "zb-auto": "zb-auto",
    "auto": "zb-auto",
}


def parse_schedule_kind(raw: str) -> ScheduleKind:
    """``ScheduleKind`` for a canonical value or alias (ValueError)."""
    try:
        return ScheduleKind(SCHEDULE_ALIASES.get(str(raw).lower(), raw))
    except ValueError:
        raise ValueError(
            f"'{raw}' is not a valid ScheduleKind; known: "
            + ", ".join(SCHEDULE_ORDER)) from None


class OpKind(Enum):
    """What a slot computes: forward, activation-grad, weight-grad."""

    F = "F"
    B = "B"
    W = "W"


@dataclass(frozen=True)
class Slot:
    """One unit of stage work: a microbatch's F, B, or W op.

    ``kind`` defaults from ``is_forward`` so the classic two-phase
    constructor ``Slot(m, is_forward)`` keeps meaning F/B; zero-bubble
    schedules pass ``OpKind.W`` explicitly (with ``is_forward=False``,
    so legacy consumers see W as backward-phase work).
    """

    microbatch: int
    is_forward: bool
    kind: OpKind | None = None

    def __post_init__(self) -> None:
        if self.kind is None:
            object.__setattr__(
                self, "kind", OpKind.F if self.is_forward else OpKind.B)
        elif (self.kind is OpKind.F) != self.is_forward:
            raise ValueError(
                f"slot kind {self.kind} inconsistent with "
                f"is_forward={self.is_forward}")


# Slots are interned, one frozen instance per (microbatch, kind): the
# schedules kept by the pipeline plan memos share them instead of each
# holding its own copies.

@functools.cache
def _f(m: int) -> Slot:
    return Slot(m, True)


@functools.cache
def _b(m: int) -> Slot:
    return Slot(m, False)


@functools.cache
def _w(m: int) -> Slot:
    return Slot(m, False, OpKind.W)


def _slot_key(microbatch: int, kind: OpKind) -> int:
    """A program index key: one int per (microbatch, kind), so the
    indexes of memoized plans hold no key objects of their own."""
    return 3 * microbatch + _CODE_OF_KIND[kind]


@dataclass(frozen=True)
class StageProgram:
    """One stage's ordered slot sequence."""

    stage: int
    slots: tuple[Slot, ...]
    #: ``_slot_key(microbatch, kind) -> slot position``, built once so
    #: lowering does O(1) lookups instead of an O(M) scan per query.
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    #: ``_w_before[i]`` counts W slots among ``slots[:i]`` (prefix
    #: sums, so ``stash_slots`` can discount W filler in O(1)).
    _w_before: tuple = field(default=(), init=False, repr=False,
                             compare=False)

    def __post_init__(self) -> None:
        index: dict[int, int] = {}
        w_before = [0]
        for position, slot in enumerate(self.slots):
            key = _slot_key(slot.microbatch, slot.kind)
            if key in index:
                raise ValueError(
                    f"stage {self.stage} repeats slot "
                    f"{(slot.microbatch, slot.kind)}")
            index[key] = position
            w_before.append(w_before[-1]
                            + (slot.kind is OpKind.W))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_w_before", tuple(w_before))

    def slot_index(self, microbatch: int, is_forward: bool) -> int:
        kind = OpKind.F if is_forward else OpKind.B
        try:
            return self._index[_slot_key(microbatch, kind)]
        except KeyError:
            raise KeyError((self.stage, microbatch, is_forward)) \
                from None

    def kind_index(self, microbatch: int, kind: OpKind) -> int:
        try:
            return self._index[_slot_key(microbatch, kind)]
        except KeyError:
            raise KeyError((self.stage, microbatch, kind)) from None

    def stash_slots(self, microbatch: int) -> int:
        """Slots a microbatch's activations stay stashed: the count of
        other F/B work units executed between its forward and backward
        (the activation-grad op -- zero-bubble stashes are freed at B).
        Deferred W slots are short filler and do not count toward the
        lifetime, so the offload-window heuristic sees the same stash
        ages on a split schedule as on its 1F1B skeleton."""
        fwd = self.slot_index(microbatch, True)
        bwd = self.slot_index(microbatch, False)
        return bwd - fwd - 1 \
            - (self._w_before[bwd] - self._w_before[fwd + 1])

    @property
    def max_in_flight(self) -> int:
        """Peak live activation stashes (forwards minus B-backwards).

        W slots do not extend the activation lifetime: the stash is
        released when B consumes it.
        """
        live = peak = 0
        for slot in self.slots:
            if slot.kind is OpKind.F:
                live += 1
            elif slot.kind is OpKind.B:
                live -= 1
            peak = max(peak, live)
        return peak

    @property
    def max_w_backlog(self) -> int:
        """Peak count of microbatches whose B ran but W is still
        pending -- each holds its weight-gradient inputs resident."""
        pending = peak = 0
        for slot in self.slots:
            if slot.kind is OpKind.B:
                pending += 1
            elif slot.kind is OpKind.W:
                pending -= 1
            peak = max(peak, pending)
        return peak

    @property
    def has_wgrad(self) -> bool:
        return any(slot.kind is OpKind.W for slot in self.slots)


@dataclass(frozen=True)
class PipelineSchedule:
    """All stages' programs for one training iteration."""

    kind: ScheduleKind
    n_stages: int
    n_microbatches: int
    programs: tuple[StageProgram, ...]

    def program(self, stage: int) -> StageProgram:
        return self.programs[stage]

    @property
    def splits_wgrad(self) -> bool:
        return any(program.has_wgrad for program in self.programs)


@dataclass(frozen=True)
class ScheduleCosts:
    """Per-stage op costs feeding the zb-auto slot-ordering search.

    All tuples are indexed by stage.  ``t_bwd`` is the activation-grad
    (B) time alone; ``send_fwd[s]`` prices stage ``s``'s activation
    send toward ``s+1`` and ``send_bwd[s]`` its gradient send toward
    ``s-1`` (zero at the respective pipeline ends).  Every entry must
    be finite and non-negative (ValueError otherwise).
    """

    t_fwd: tuple[float, ...]
    t_bwd: tuple[float, ...]
    t_wgrad: tuple[float, ...]
    send_fwd: tuple[float, ...]
    send_bwd: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in _COST_FIELDS:
            for stage, value in enumerate(getattr(self, name)):
                # Written so NaN fails too: it compares false.
                if not 0.0 <= value < float("inf"):
                    raise ValueError(
                        f"ScheduleCosts.{name}[{stage}] must be finite "
                        f"and non-negative, got {value!r}")


_COST_FIELDS = ("t_fwd", "t_bwd", "t_wgrad", "send_fwd", "send_bwd")


def _check_stage_costs(costs: ScheduleCosts, n_stages: int) -> None:
    """ValueError naming the first cost field not sized ``n_stages``."""
    for name in _COST_FIELDS:
        length = len(getattr(costs, name))
        if length != n_stages:
            raise ValueError(
                f"ScheduleCosts.{name} has {length} entries for "
                f"{n_stages} stages")


def _gpipe_program(stage: int, n_microbatches: int) -> StageProgram:
    """Fill-drain: every forward, then every backward (same order)."""
    slots = [_f(m) for m in range(n_microbatches)]
    slots += [_b(m) for m in range(n_microbatches)]
    return StageProgram(stage=stage, slots=tuple(slots))


def _one_f_one_b_program(stage: int, n_stages: int,
                         n_microbatches: int) -> StageProgram:
    """1F1B: warm up ``P - 1 - s`` forwards, alternate, then drain."""
    warmup = min(n_stages - 1 - stage, n_microbatches)
    slots = [_f(m) for m in range(warmup)]
    for m in range(n_microbatches - warmup):
        slots.append(_f(warmup + m))
        slots.append(_b(m))
    for m in range(n_microbatches - warmup, n_microbatches):
        slots.append(_b(m))
    return StageProgram(stage=stage, slots=tuple(slots))


#: Slot kind codes of a compiled sequence: a stage's slots as a tuple
#: of ``(code, microbatch)`` pairs, the form the makespan model reads.
_FWD, _BWD, _WGRAD = 0, 1, 2
_Seq = tuple[tuple[int, int], ...]
_CODE_OF_KIND = {OpKind.F: _FWD, OpKind.B: _BWD, OpKind.W: _WGRAD}
_SLOT_OF_CODE = (_f, _b, _w)


def _zero_bubble_slots(stage: int, n_stages: int, n_microbatches: int,
                       defer: int, drain_w: int) -> _Seq:
    """1F1B slot order with W split off and deferred as bubble filler.

    ``defer`` bounds how many microbatches may sit between a B and its
    W during the steady state (the weight-grad-input backlog, capped at
    the stage's warmup so memory stays at the 1F1B bound); ``drain_w``
    is how many banked W ops are retired per drain-phase B, filling the
    idle gaps between grad arrivals.  Leftover W ops flush at the tail.
    Returns the compiled ``(code, microbatch)`` sequence.
    """
    warmup = min(n_stages - 1 - stage, n_microbatches)
    defer = max(0, min(defer, warmup, n_microbatches))
    slots = [(_FWD, m) for m in range(warmup)]
    next_w = 0

    def retire(limit: int, upto: int) -> None:
        nonlocal next_w
        emitted = 0
        while next_w <= upto and emitted < limit:
            slots.append((_WGRAD, next_w))
            next_w += 1
            emitted += 1

    for m in range(n_microbatches - warmup):
        slots.append((_FWD, warmup + m))
        slots.append((_BWD, m))
        if m + 1 - next_w > defer:
            retire(m + 1 - next_w - defer, m)
    for m in range(n_microbatches - warmup, n_microbatches):
        slots.append((_BWD, m))
        retire(drain_w, m)
    retire(n_microbatches - next_w, n_microbatches - 1)
    return tuple(slots)


def _zero_bubble_program(stage: int, n_stages: int, n_microbatches: int,
                         defer: int, drain_w: int) -> StageProgram:
    """:func:`_zero_bubble_slots` as a :class:`StageProgram`."""
    return StageProgram(stage=stage, slots=tuple(
        _SLOT_OF_CODE[code](m) for code, m in _zero_bubble_slots(
            stage, n_stages, n_microbatches, defer, drain_w)))


def _zb_h1_params(n_stages: int,
                  n_microbatches: int) -> list[tuple[int, int]]:
    """The fixed ZB-H1 heuristic: defer by the warmup depth, retire
    one banked W per drain gap."""
    return [(min(n_stages - 1 - s, n_microbatches), 1)
            for s in range(n_stages)]


def _makespan(seqs: list[_Seq], costs: ScheduleCosts,
              n_microbatches: int) -> float:
    """Analytic makespan of compiled per-stage slot sequences.

    ``seqs[s]`` is stage ``s``'s ``(code, microbatch)`` sequence with
    microbatches in ``range(n_microbatches)``.  Each stage advances its
    cursor until a slot's input is not ready yet; completion times live
    in per-stage lists indexed by microbatch (``None``: not yet run).
    A slot finishes at ``max(engine_free, ready) + cost``; the inline
    ``ready if ready > free else free`` is exactly what ``max(free,
    ready)`` returns (the first argument on ties), without the call.
    """
    n_stages = len(seqs)
    last = n_stages - 1
    f_done = [[None] * n_microbatches for _ in range(n_stages)]
    b_done = [[None] * n_microbatches for _ in range(n_stages)]
    cursors = [0] * n_stages
    engine_free = [0.0] * n_stages
    t_fwd, t_bwd, t_wgrad = costs.t_fwd, costs.t_bwd, costs.t_wgrad
    send_fwd, send_bwd = costs.send_fwd, costs.send_bwd
    total = sum(len(seq) for seq in seqs)
    emitted = 0
    # F work flows down the stages and B work up, so sweeping in
    # alternating directions lets each sweep carry both along.
    down = range(n_stages)
    up = down[::-1]
    order = down
    progress = True
    while progress:
        progress = False
        for s in order:
            seq = seqs[s]
            start = cursor = cursors[s]
            end = len(seq)
            if cursor == end:
                continue
            free = engine_free[s]
            f_here, b_here = f_done[s], b_done[s]
            f_up = f_done[s - 1] if s > 0 else None
            b_down = b_done[s + 1] if s < last else None
            while cursor < end:
                code, m = seq[cursor]
                if code == _FWD:
                    if f_up is None:
                        ready = 0.0
                    else:
                        ready = f_up[m]
                        if ready is None:
                            break
                        ready = ready + send_fwd[s - 1]
                    free = (ready if ready > free else free) + t_fwd[s]
                    f_here[m] = free
                elif code == _BWD:
                    if b_down is None:
                        ready = f_here[m]
                        if ready is None:
                            break
                    else:
                        ready = b_down[m]
                        if ready is None:
                            break
                        ready = ready + send_bwd[s + 1]
                    free = (ready if ready > free else free) + t_bwd[s]
                    b_here[m] = free
                else:
                    ready = b_here[m]
                    if ready is None:
                        break
                    free = (ready if ready > free else free) + t_wgrad[s]
                cursor += 1
            if cursor != start:
                engine_free[s] = free
                cursors[s] = cursor
                emitted += cursor - start
                progress = True
        order = up if order is down else down
    if emitted != total:
        raise RuntimeError(
            f"schedule deadlocked after {emitted}/{total} slots in "
            "analytic evaluation (inconsistent stage programs)")
    return max(engine_free) if engine_free else 0.0


def _auto_zero_bubble_params(n_stages: int, n_microbatches: int,
                             costs: ScheduleCosts) \
        -> list[tuple[int, int]]:
    """Coordinate descent over per-stage (defer, drain_w) knobs.

    Starts at the ZB-H1 heuristic and greedily improves one stage at a
    time against the analytic makespan, two sweeps.  Deterministic;
    the deferral depth never exceeds the stage's warmup, keeping the
    weight-grad-input backlog under the 1F1B memory bound.

    Each (stage, defer, drain_w) sequence is compiled once; identical
    sequences share an id, and the makespan is memoized per vector of
    stage sequence ids, so every distinct schedule is evaluated once.
    The memos live only for this call.
    """
    seq_ids: dict[_Seq, int] = {}
    seqs: list[_Seq] = []
    compiled: dict[tuple[int, int, int], int] = {}
    spans: dict[tuple[int, ...], float] = {}

    def seq_id(stage: int, defer: int, drain_w: int) -> int:
        key = (stage, defer, drain_w)
        found = compiled.get(key)
        if found is None:
            seq = _zero_bubble_slots(stage, n_stages, n_microbatches,
                                     defer, drain_w)
            found = compiled[key] = seq_ids.setdefault(seq, len(seqs))
            if found == len(seqs):
                seqs.append(seq)
        return found

    def makespan(vector: tuple[int, ...]) -> float:
        span = spans.get(vector)
        if span is None:
            span = spans[vector] = _makespan(
                [seqs[i] for i in vector], costs, n_microbatches)
        return span

    params = _zb_h1_params(n_stages, n_microbatches)
    vector = tuple(seq_id(s, d, k) for s, (d, k) in enumerate(params))
    best = makespan(vector)
    for _ in range(2):
        for s in range(n_stages):
            warmup = min(n_stages - 1 - s, n_microbatches)
            for defer in sorted({0, warmup // 2, warmup}):
                for drain_w in (0, 1, 2, n_microbatches):
                    if (defer, drain_w) == params[s]:
                        continue
                    trial = vector[:s] + (seq_id(s, defer, drain_w),) \
                        + vector[s + 1:]
                    span = makespan(trial)
                    if span < best * (1.0 - 1e-12):
                        best = span
                        params[s] = (defer, drain_w)
                        vector = trial
    return params


def build_schedule(kind: ScheduleKind, n_stages: int,
                   n_microbatches: int,
                   costs: ScheduleCosts | None = None) \
        -> PipelineSchedule:
    """Generate every stage's program for ``kind``.

    ``costs`` feeds the ``zb-auto`` slot-ordering search; without it
    the auto kind falls back to the fixed ZB-H1 parameters.  The other
    kinds ignore it.
    """
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if n_microbatches < 1:
        raise ValueError("need at least one microbatch")
    if costs is not None:
        _check_stage_costs(costs, n_stages)
    if kind is ScheduleKind.GPIPE:
        programs = tuple(_gpipe_program(s, n_microbatches)
                         for s in range(n_stages))
    elif kind is ScheduleKind.ONE_F_ONE_B:
        programs = tuple(
            _one_f_one_b_program(s, n_stages, n_microbatches)
            for s in range(n_stages))
    else:
        if kind is ScheduleKind.ZB_AUTO and costs is not None:
            params = _auto_zero_bubble_params(n_stages, n_microbatches,
                                              costs)
        else:
            params = _zb_h1_params(n_stages, n_microbatches)
        programs = tuple(
            _zero_bubble_program(s, n_stages, n_microbatches, d, k)
            for s, (d, k) in enumerate(params))
    return PipelineSchedule(kind=kind, n_stages=n_stages,
                            n_microbatches=n_microbatches,
                            programs=programs)


def structural_bubble_time(n_stages: int, t_fwd: float, t_bwd: float,
                           t_wgrad: float = 0.0) -> float:
    """The schedule-independent fill/drain lower bound.

    With an undifferentiated backward (``t_wgrad == 0``) both GPipe
    and 1F1B idle each stage for ``(P-1) * (t_f + t_b)`` in aggregate
    when memory is free; measured bubbles exceed this bound by exactly
    the memory system's exposed stall time.  Splitting ``t_wgrad`` out
    of ``t_bwd`` (which stays the *total* backward time) lets a
    zero-bubble schedule fill up to ``2 * (P-1) * t_W`` of that idle
    with deferred weight-gradient work -- ZB-H1's
    ``(P-1) * (t_f + t_B - t_W)`` bound -- so the lower bound drops
    accordingly, floored at zero.
    """
    if n_stages < 1:
        raise ValueError("need at least one stage")
    return max(0.0, (n_stages - 1) * (t_fwd + t_bwd - 2.0 * t_wgrad))
