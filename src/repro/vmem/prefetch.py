"""Pluggable prefetch/eviction policies for the vmem offload path.

The paper's stress methodology offloads every eligible tensor and
prefetches it back before reuse; *when* each prefetch is issued decides
whether the migration hides behind compute or stalls it.  The seed
hard-wired one choice (a bounded lookahead of ``prefetch_window``
steps).  This module makes the choice a policy:

=============  ==========================================================
``on-demand``  the legacy baseline: issue each fetch ``prefetch_window``
               steps before its consumer (vDNN's bounded lookahead);
               byte-for-byte identical to the seed's schedules.
``next-op``    minimal lookahead: issue when the op immediately before
               the consumer completes.  The most conservative timing --
               nothing sits in device memory early, everything risks
               arriving late.
``stride``     a history predictor: learns the stride of the consumer
               step sequence and speculates ``2 x prefetch_window``
               steps ahead on a predicted hit.  Mispredictions (branchy
               graphs) fetch garbage -- wasted bytes -- and fall back to
               demand fetching; a bounded stash forces evictions when
               speculation runs too far ahead.
``cost-model`` just-in-time: consults the same latency model the
               simulator prices ops with (compute seconds per step, DMA
               seconds per tensor, DMA queueing) and issues each fetch
               at the latest gate that still predicts completion before
               the consumer needs it.
``clairvoyant`` the schedule oracle: knows the whole iteration and
               issues every fetch the moment its tensor is offloaded.
               The upper bound on timeliness -- zero wasted bytes, zero
               evictions, and (weakly) minimal stall.
=============  ==========================================================

Policies turn a :class:`PrefetchContext` (the fetch sites of one
schedule plus the cost estimates) into a :class:`PrefetchSchedule`
(per-fetch gate steps, speculative waste fetches, evictions).  The
schedule builders in :mod:`repro.core.schedule` and
:mod:`repro.pipeline.lowering` emit ops from that schedule, and
:func:`collect_prefetch_stats` distils the scheduled timeline into the
:class:`~repro.core.metrics.PrefetchStats` block campaigns persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING
from collections.abc import Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.metrics import PrefetchStats
    from repro.core.optable import ColumnarTimeline

#: Presentation order of the policy axis (baseline first, oracle last).
PREFETCH_POLICY_ORDER = ("on-demand", "next-op", "stride", "cost-model",
                         "clairvoyant")

#: The legacy baseline every differential test anchors on.
ON_DEMAND = "on-demand"

#: How far beyond the legacy window the stride predictor speculates.
STRIDE_DEPTH_FACTOR = 2


@dataclass(frozen=True)
class FetchSite:
    """One tensor a schedule must bring back from the backing store."""

    producer: str
    #: Index of the consuming step in the schedule's step sequence
    #: (backward steps for training, forward layers for inference).
    use_step: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.use_step < 0:
            raise ValueError("negative use step")
        if self.nbytes < 0:
            raise ValueError("negative tensor size")


@dataclass(frozen=True)
class PrefetchContext:
    """Everything a policy may consult when timing its fetches."""

    #: Steps of the consuming schedule, in execution order.
    n_steps: int
    #: Fetch sites in engine issue order (non-decreasing ``use_step``).
    sites: tuple[FetchSite, ...]
    #: Estimated compute seconds of each step (the same latency model
    #: the simulator prices ops with).
    step_seconds: tuple[float, ...]
    #: Estimated DMA seconds of each site's transfer, aligned with
    #: ``sites``.
    fetch_seconds: tuple[float, ...]
    #: The legacy bounded lookahead (``SystemConfig.prefetch_window``).
    window: int
    #: Stash capacity for speculative policies
    #: (``SystemConfig.prefetch_stash``).
    stash: int

    def __post_init__(self) -> None:
        if self.n_steps < 0:
            raise ValueError("negative step count")
        if len(self.step_seconds) != self.n_steps:
            raise ValueError("step_seconds must cover every step")
        if len(self.fetch_seconds) != len(self.sites):
            raise ValueError("fetch_seconds must cover every site")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.stash < 1:
            raise ValueError("stash must be >= 1")
        last = -1
        for site in self.sites:
            if site.use_step >= self.n_steps:
                raise ValueError(
                    f"site {site.producer!r} uses step {site.use_step} "
                    f"outside the {self.n_steps}-step schedule")
            if site.use_step < last:
                raise ValueError("sites must be in use order")
            last = site.use_step


@dataclass(frozen=True)
class FetchIssue:
    """When one site's real fetch is issued.

    ``gate_step`` names the step whose *compute completion* releases
    the DMA; ``None`` gates only on the tensor's offload (the earliest
    possible issue).
    """

    site: FetchSite
    gate_step: int | None
    #: True when this fetch was re-issued after an eviction.
    refetch: bool = False

    def __post_init__(self) -> None:
        if self.gate_step is not None and \
                not 0 <= self.gate_step < self.site.use_step:
            raise ValueError(
                f"gate step {self.gate_step} must precede use step "
                f"{self.site.use_step}")


@dataclass(frozen=True)
class WasteFetch:
    """One speculative DMA that moved bytes nothing consumed."""

    #: Site index before whose real fetch this op is emitted.
    before_site: int
    gate_step: int | None
    nbytes: int
    label: str

    def __post_init__(self) -> None:
        if self.before_site < 0:
            raise ValueError("negative site index")
        if self.nbytes < 0:
            raise ValueError("negative byte count")


@dataclass(frozen=True)
class PrefetchSchedule:
    """A policy's complete issue plan for one schedule's fetches."""

    policy: str
    #: Aligned with the context's ``sites``.
    issues: tuple[FetchIssue, ...]
    waste: tuple[WasteFetch, ...] = ()
    evictions: int = 0

    def __post_init__(self) -> None:
        if self.evictions < 0:
            raise ValueError("negative eviction count")

    @property
    def wasted_bytes(self) -> int:
        return sum(w.nbytes for w in self.waste)

    def waste_before(self) -> dict[int, tuple[WasteFetch, ...]]:
        """Waste fetches grouped by the site they precede."""
        grouped: dict[int, list[WasteFetch]] = {}
        for item in self.waste:
            grouped.setdefault(item.before_site, []).append(item)
        return {k: tuple(v) for k, v in grouped.items()}


def choose_victim(residents: Sequence[FetchSite], frontier: int,
                  window: int) -> int | None:
    """Pick the stash tensor to evict, or ``None`` if none is safe.

    The victim is the resident whose use lies furthest in the future
    (Belady's choice among evictables).  A tensor whose use falls
    within ``window`` steps of the issue frontier is *live* -- evicting
    it would guarantee a demand stall -- and is never chosen; with no
    safe victim the caller must defer instead.
    """
    best = None
    for index, site in enumerate(residents):
        if site.use_step <= frontier + window:
            continue  # live in the current schedule window
        if best is None or (site.use_step, index) \
                > (residents[best].use_step, best):
            best = index
    return best


class PrefetchPolicy:
    """Interface: turn a context into an issue schedule."""

    name: str = "abstract"

    def plan(self, ctx: PrefetchContext) -> PrefetchSchedule:
        raise NotImplementedError


class OnDemandPolicy(PrefetchPolicy):
    """The seed's bounded lookahead, reproduced gate-for-gate."""

    name = ON_DEMAND

    def plan(self, ctx: PrefetchContext) -> PrefetchSchedule:
        issues = []
        for site in ctx.sites:
            gate = site.use_step - ctx.window
            issues.append(FetchIssue(site, gate if gate >= 0 else None))
        return PrefetchSchedule(policy=self.name, issues=tuple(issues))


class NextOpPolicy(PrefetchPolicy):
    """One step of lookahead: fetch while the previous op runs."""

    name = "next-op"

    def plan(self, ctx: PrefetchContext) -> PrefetchSchedule:
        issues = []
        for site in ctx.sites:
            gate = site.use_step - 1
            issues.append(FetchIssue(site, gate if gate >= 0 else None))
        return PrefetchSchedule(policy=self.name, issues=tuple(issues))


class ClairvoyantPolicy(PrefetchPolicy):
    """The schedule oracle: every fetch at the earliest possible issue.

    Knowing the whole iteration, it never speculates (zero waste) and
    never over-commits (zero evictions); the DMA engine's issue-order
    serialization is the only thing between a fetch and its consumer.
    """

    name = "clairvoyant"

    def plan(self, ctx: PrefetchContext) -> PrefetchSchedule:
        issues = tuple(FetchIssue(site, None) for site in ctx.sites)
        return PrefetchSchedule(policy=self.name, issues=issues)


class CostModelPolicy(PrefetchPolicy):
    """Just-in-time issue driven by the simulator's own latency model.

    For each fetch, walk candidate gates from the latest backwards and
    take the first whose predicted DMA completion (including queueing
    behind earlier fetches on the serialized DMA engine) beats the
    consumer's predicted start; if even the earliest issue cannot make
    the deadline the fetch goes out ungated.
    """

    name = "cost-model"

    def plan(self, ctx: PrefetchContext) -> PrefetchSchedule:
        # prefix[k]: predicted start of step k if compute never stalls.
        prefix = [0.0]
        for seconds in ctx.step_seconds:
            prefix.append(prefix[-1] + seconds)
        dma_free = 0.0
        issues = []
        for index, site in enumerate(ctx.sites):
            deadline = prefix[site.use_step]
            need = ctx.fetch_seconds[index]
            chosen = None
            for gate in range(site.use_step - 1, -1, -1):
                if max(prefix[gate + 1], dma_free) + need <= deadline:
                    chosen = gate
                    break
            start = max(prefix[chosen + 1] if chosen is not None
                        else 0.0, dma_free)
            dma_free = start + need
            issues.append(FetchIssue(site, chosen))
        return PrefetchSchedule(policy=self.name, issues=tuple(issues))


class StridePolicy(PrefetchPolicy):
    """History/stride predictor with a bounded stash and eviction.

    Learns the stride between consecutive consumer steps and, on a
    predicted hit, speculates ahead of the consumer -- starting at
    ``STRIDE_DEPTH_FACTOR x window`` steps and ramping one step deeper
    per consecutive hit (classic confidence ramping), capped at
    ``window + stash``.  A misprediction moves the previous transfer's
    worth of garbage (wasted bytes) and falls back to demand fetching.
    Deep speculation is capped by the stash: when full, the
    furthest-future resident is evicted (never one live within the
    schedule window) and re-fetched on demand -- its first trip
    becomes wasted traffic.
    """

    name = "stride"

    def plan(self, ctx: PrefetchContext) -> PrefetchSchedule:
        base_depth = STRIDE_DEPTH_FACTOR * ctx.window
        max_depth = ctx.window + ctx.stash
        issues: list[FetchIssue] = []
        waste: list[WasteFetch] = []
        resident: list[int] = []  # site indices speculated and unconsumed
        evictions = 0
        prev_use: int | None = None
        stride = 1
        run_length = 0
        for index, site in enumerate(ctx.sites):
            predicted = None if prev_use is None else prev_use + stride
            if predicted == site.use_step:
                run_length += 1
                depth = min(base_depth + run_length - 1, max_depth)
                gate = site.use_step - depth
                gate = gate if gate >= 0 else None
                frontier = gate if gate is not None else 0
                resident = [j for j in resident
                            if ctx.sites[j].use_step > frontier]
                if len(resident) >= ctx.stash:
                    victim = choose_victim(
                        [ctx.sites[j] for j in resident], frontier,
                        ctx.window)
                    if victim is not None:
                        j = resident.pop(victim)
                        vsite = ctx.sites[j]
                        evictions += 1
                        waste.append(WasteFetch(
                            before_site=j,
                            gate_step=issues[j].gate_step,
                            nbytes=vsite.nbytes,
                            label=f"evict:{vsite.producer}"))
                        demand = vsite.use_step - 1
                        issues[j] = FetchIssue(
                            vsite, demand if demand >= 0 else None,
                            refetch=True)
                        resident.append(index)
                    else:
                        # Everything resident is live: defer to the
                        # legacy lookahead instead of evicting.
                        gate = site.use_step - ctx.window
                        gate = gate if gate >= 0 else None
                else:
                    resident.append(index)
                issues.append(FetchIssue(site, gate))
            else:
                run_length = 0
                if predicted is not None:
                    # Speculatively fetched the wrong tensor: charge
                    # the previous transfer's size, issued at the
                    # depth the predictor would have used.
                    gate = min(predicted - base_depth,
                               site.use_step - 1)
                    waste.append(WasteFetch(
                        before_site=index,
                        gate_step=gate if gate >= 0 else None,
                        nbytes=ctx.sites[index - 1].nbytes,
                        label=f"mispredict:{site.producer}"))
                demand = site.use_step - 1
                issues.append(FetchIssue(
                    site, demand if demand >= 0 else None))
            if prev_use is not None:
                stride = site.use_step - prev_use
            prev_use = site.use_step
        return PrefetchSchedule(policy=self.name, issues=tuple(issues),
                                waste=tuple(waste), evictions=evictions)


_POLICIES: dict[str, PrefetchPolicy] = {
    policy.name: policy for policy in (
        OnDemandPolicy(), NextOpPolicy(), StridePolicy(),
        CostModelPolicy(), ClairvoyantPolicy())
}

assert tuple(sorted(_POLICIES)) == tuple(sorted(PREFETCH_POLICY_ORDER))


def prefetch_policy(name: str) -> PrefetchPolicy:
    """Look a policy up by its axis name."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown prefetch policy {name!r}; known: "
            f"{', '.join(PREFETCH_POLICY_ORDER)}") from None


# ---------------------------------------------------------------------------
# Post-schedule accounting


def collect_prefetch_stats(timeline: ColumnarTimeline, policy: str,
                           evictions: int = 0) -> PrefetchStats:
    """Distil a scheduled timeline into the campaign-facing stats.

    Works for any schedule the emitters produce -- training, inference
    weight streaming, and multi-channel pipelines -- because it reasons
    only over engine kinds: a compute op stalls when its DMA-in
    dependencies finish after both its own engine and its non-DMA
    dependencies were ready.  Wasted traffic is whatever rode a
    ``waste:`` tag.

    Reads the timeline's columns directly: no per-op objects are
    materialized, the scheduler's recorded per-slot previous-finish
    column gives each op's engine-ready time, and the DMA/collective
    overlap is priced on numpy interval arrays.
    """
    import numpy as np

    # Imported here, not at module scope: repro.training (and through
    # it repro.core.metrics) imports repro.vmem, so a top-level import
    # would close an import cycle through the package __init__.
    from repro.core.metrics import PrefetchStats
    from repro.core.optable import ENGINE_CODE
    from repro.core.timeline import EngineKind

    table = timeline.table
    arrays = timeline.as_arrays()
    engine = arrays["engine"]
    starts = timeline.start
    finishes = timeline.finish
    prev_slot = timeline.prev_slot_finish
    engines = table.engines
    deps = table.deps
    tags = table.tags
    nbytes = table.nbytes
    durations = table.durations

    dma_in_idx = np.nonzero(engine == ENGINE_CODE[EngineKind.DMA_IN])[0]
    prefetch_bytes = sum(nbytes[i] for i in dma_in_idx)
    wasted = sum(nbytes[i] for i in dma_in_idx
                 if tags[i].startswith("waste:"))

    late = jit = early = 0
    n_prefetches = 0
    stall = 0.0
    compute = EngineKind.COMPUTE
    dma_in = EngineKind.DMA_IN
    for i in np.nonzero(engine == ENGINE_CODE[compute])[0]:
        op_deps = deps[i]
        if not op_deps:
            continue
        fetches = [d for d in op_deps if engines[d] is dma_in]
        if not fetches:
            continue
        other = max((finishes[d] for d in op_deps
                     if engines[d] is not dma_in), default=0.0)
        prev = prev_slot[i]
        unblocked = prev if prev > other else other
        stall += max(0.0, starts[i] - unblocked)
        for d in fetches:
            n_prefetches += 1
            slack = unblocked - finishes[d]
            if slack < 0:
                late += 1
            elif slack <= durations[d]:
                jit += 1
            else:
                early += 1
    hit_rate = 1.0 if n_prefetches == 0 \
        else (n_prefetches - late) / n_prefetches
    stats = PrefetchStats(
        policy=policy,
        n_prefetches=n_prefetches,
        prefetch_bytes=prefetch_bytes,
        wasted_bytes=wasted,
        evictions=evictions,
        stall_seconds=stall,
        late=late, jit=jit, early=early,
        hit_rate=hit_rate,
        contended_seconds=_dma_comm_overlap(arrays),
    )
    _record_stats(stats)
    return stats


def _dma_comm_overlap(arrays) -> float:
    """Seconds of DMA x collective busy overlap, summed over op pairs.

    Per channel (in the order DMA ops first appear on each), every
    (DMA op, collective op) pair of non-empty intervals contributes
    its clipped overlap.  The pairwise overlaps are laid out row-major
    (DMA op major, both in uid order), concatenated across channels,
    and reduced with one sequential ``cumsum``, so the total is summed
    in a fixed order.
    """
    import numpy as np

    from repro.core.optable import ENGINE_CODE
    from repro.core.timeline import EngineKind

    engine = arrays["engine"]
    start = arrays["start"]
    finish = arrays["finish"]
    channel = arrays["channel"]
    span = finish > start
    dma = span & ((engine == ENGINE_CODE[EngineKind.DMA_IN])
                  | (engine == ENGINE_CODE[EngineKind.DMA_OUT]))
    comm = span & (engine == ENGINE_CODE[EngineKind.COMM])
    if not dma.any() or not comm.any():
        return 0.0
    dma_ch = channel[dma]
    comm_ch = channel[comm]
    a0, a1 = start[dma], finish[dma]
    b0, b1 = start[comm], finish[comm]
    _, first = np.unique(dma_ch, return_index=True)
    terms = []
    for ch in dma_ch[np.sort(first)]:
        mine = dma_ch == ch
        theirs = comm_ch == ch
        if not theirs.any():
            continue
        pair = (np.minimum.outer(a1[mine], b1[theirs])
                - np.maximum.outer(a0[mine], b0[theirs]))
        terms.append(np.maximum(0.0, pair).ravel())
    if not terms:
        return 0.0
    return float(np.cumsum(np.concatenate(terms))[-1])


def _record_stats(stats) -> None:
    """Telemetry probe: per-policy issue/waste/evict counters,
    updated once per collected timeline (never in the hot loops)."""
    from repro.telemetry.registry import metrics_registry
    registry = metrics_registry()
    if registry is None:
        return
    labels = {"policy": stats.policy}
    registry.counter(
        "repro_prefetch_issues_total",
        "prefetch DMAs issued", **labels).inc(stats.n_prefetches)
    registry.counter(
        "repro_prefetch_evictions_total",
        "prefetch stash evictions", **labels).inc(stats.evictions)
    registry.counter(
        "repro_prefetch_wasted_bytes_total",
        "speculative prefetch bytes never consumed",
        **labels).inc(stats.wasted_bytes)
    registry.counter(
        "repro_prefetch_late_total",
        "prefetches that arrived after their consumer could run",
        **labels).inc(stats.late)
