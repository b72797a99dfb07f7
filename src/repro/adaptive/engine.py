"""Adaptive re-planning over rapidly-changing networks (the timing plane).

The static planners (:mod:`repro.repair`) pick helpers, a CR center and
HMBR's split ratio against the bandwidth snapshot that exists at plan
time.  On a quiet network that is optimal; under churn the plan's
predicted per-flow rates and the observed ones diverge, and the repair
drags at the speed of whichever link degraded.  :class:`AdaptiveEngine`
closes the loop:

1. Round 0 simulates the *exact static plans* (built by the coordinator's
   own planning helpers) against the bandwidth-event trace, alongside a
   quiet reference run of the same compiled tasks — the plan-time rate
   prediction.
2. The observed run pauses at every event boundary, where its per-flow
   rates are compared with the prediction's.  The first boundary where
   some flow drifts past ``drift_threshold`` triggers a re-plan.
3. The round is cut there — the paused run *is* the round's state at the
   cut.  The volume each sub-plan completed *end to end* is committed
   into a :class:`~repro.adaptive.journal.RangeJournal` as a word-aligned
   fraction-range piece, and only the remaining range is re-planned —
   helpers, center, forwarding shape and HMBR's ``p0`` are all re-chosen
   against the *current* capacities (and the still-pending future
   events), picking the best of :data:`CANDIDATES`.
4. Repeat until a round runs to completion undisturbed.

The engine never moves bytes — it produces :class:`AdaptivePiece`\\ s
(fraction ranges plus the data-plane ops that rebuild them) that
:class:`~repro.adaptive.runtime.AdaptiveRuntime` executes exactly once
each.  On a quiet network no boundary ever trips, round 0 runs to
completion, and both the makespan and the committed ops are *identical*
to the static path — adaptivity is a strict no-op (the property tests
pin this bit-exactly).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from typing import Callable

from repro.adaptive.journal import RangeJournal
from repro.repair._build import add_centralized, add_independent, add_multilevel
from repro.repair.context import RepairContext
from repro.repair.plan import RepairPlan
from repro.repair.planner import ADAPTIVE_SCHEMES
from repro.repair.split import search_split
from repro.repair.topology import build_chain_paths
from repro.simnet.fluid import FluidSimulator
from repro.simnet.network import cluster_at

_TINY = 1e-12
#: a remaining range narrower than this is "done at the boundary".
_DONE_FRAC = 1e-9
#: below this remaining fraction a re-plan keeps the incumbent scheme
#: instead of scoring the candidates.
MIN_REMAINING_FRAC = 0.02
#: the schemes a re-plan round scores, in tie-breaking order.
CANDIDATES = ("hmbr", "mlf", "cr", "ir")
#: the MLF tree fan-out of re-planned rounds (None = ~sqrt(k)).
MLF_DEGREE = None
#: re-plan rounds choose the k survivors that upload fastest right now.
REPLAN_SURVIVORS = "best-uplink"

#: sub-plan kind -> builder, called ``(ctx, prefix, lo, hi, *shape)``.
_BUILDERS = {"cr": add_centralized, "ir": add_independent, "mlf": add_multilevel}
#: scheme -> its sub-plans as (kind, task-id tag), bottom of the range first.
_PARTS = {
    "cr": (("cr", "cr"),),
    "ir": (("ir", "ir"),),
    "mlf": (("mlf", "mlf"),),
    "hmbr": (("cr", "h.cr"), ("ir", "h.ir")),
}


def _shape(kind: str, ctx: RepairContext, meta: dict | None) -> tuple:
    """Sub-plan ``kind``'s builder arguments after ``lo, hi`` (CR's center,
    IR's chain paths, MLF's degree and order): the static plan's own, read
    from its ``meta``, or with ``meta`` None picked afresh on ``ctx``."""
    if kind == "cr":
        return (ctx.pick_center("fastest-downlink") if meta is None else meta["center"],)
    if kind == "ir":
        order = "uplink-desc" if meta is None else meta.get("chain_order", "index")
        return (build_chain_paths(ctx, order, ctx.decisions()),)
    return (MLF_DEGREE, "uplink-desc") if meta is None else (meta["degree"], meta["order"])


@dataclass(frozen=True)
class AdaptiveEntry:
    """One stripe's repair as the engine sees it.

    ``plan`` must be the plan the *static* path would run (built by the
    coordinator's own helpers, the round's HMBR split included) — round 0
    simulates it verbatim, which is what makes quiet-network adaptivity a
    bit-exact no-op.
    """

    key: str
    ctx: RepairContext
    scheme: str
    plan: RepairPlan


@dataclass(frozen=True)
class AdaptivePiece:
    """A committed fraction range plus the data-plane ops that rebuild it."""

    key: str
    lo: float
    hi: float
    scheme: str
    round_index: int
    piece_id: str
    #: GF/transfer ops (see :mod:`repro.repair.plan`) producing ``outputs``.
    ops: tuple
    #: failed block index -> (new node, buffer name holding this range).
    outputs: dict[int, tuple[int, str]]


@dataclass(frozen=True)
class AdaptiveRound:
    """What one planning round did (for reports and the bench harness)."""

    index: int
    t_start_s: float
    #: simulated seconds this round was in charge.
    duration_s: float
    #: absolute instant the round was cut for a re-plan (None = ran out).
    boundary_s: float | None
    #: worst relative rate drift seen at the triggering boundary.
    drift: float
    drift_task: str | None
    scheme_by_key: dict[str, str]
    #: modeled MB this round moved but could not commit (re-planned away).
    wasted_mb: float


@dataclass
class AdaptiveReport:
    """Outcome of one :meth:`AdaptiveEngine.run` (timing plane only)."""

    scheme: str
    makespan_s: float
    #: entry key -> simulated landing instant of its last piece.
    finish_s: dict[str, float]
    replans: int
    rounds: list[AdaptiveRound]
    #: modeled MB moved then re-planned away (the price of adapting).
    wasted_mb: float
    #: total modeled MB on the wire (committed volume + waste).
    bytes_on_wire_mb_model: float
    #: entry key -> committed pieces in commit order.
    pieces: dict[str, list[AdaptivePiece]]
    journal: RangeJournal

    @property
    def n_rounds(self) -> int:
        """Planning rounds run (1 = static behavior)."""
        return len(self.rounds)


@dataclass
class _Sub:
    """One scheme-homogeneous slice ``[lo, hi)`` of an entry's round plan."""

    kind: str
    ctx: RepairContext
    prefix: str
    #: the builder's arguments after ``lo, hi`` (see :func:`_shape`)
    shape: tuple
    lo: float
    hi: float
    #: the committed range grows down from ``hi`` (HMBR's IR part, so the
    #: entry's remaining range stays one interval), else up from ``lo``
    top: bool
    tasks: list = dc_field(default_factory=list)
    #: the byte lowering and outputs of this round's build (``None`` in
    #: round 0, whose tasks are the static plan's)
    lower: Callable | None = None
    outputs: dict | None = None

    def build(self, lo: float, hi: float) -> tuple:
        """``(tasks, lower, outputs)`` of this sub-plan over ``[lo, hi)``."""
        return _BUILDERS[self.kind](
            self.ctx, self.prefix, lo, hi, *self.shape, self.ctx.decisions()
        )


@dataclass
class _Live:
    """Mutable per-entry round state."""

    entry: AdaptiveEntry
    scheme: str
    subs: list[_Sub]
    tasks: list
    lo: float = 0.0
    hi: float = 1.0
    #: round 0 only: the verbatim static plan, used for whole-range
    #: commits so the quiet path reuses its ops (and concat) untouched.
    plan0: RepairPlan | None = None


class AdaptiveEngine:
    """Drift-triggered re-planner over one bandwidth-event trace.

    ``drift_threshold`` is the relative per-flow rate error that arms a
    re-plan (0.2 = a flow running 20% off its plan-time prediction);
    ``max_replans`` bounds the loop, after which the current plans run to
    completion.  ``cluster`` is never mutated: re-plan rounds look at
    capacity snapshots built by :func:`repro.simnet.network.cluster_at`.
    ``obs`` (an :class:`repro.obs.Observability`, optional) receives
    per-round spans and ``adaptive.*`` metrics.
    """

    def __init__(
        self, cluster, *, events=(), drift_threshold: float = 0.2,
        max_replans: int = 8, obs=None,
    ) -> None:
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if max_replans < 0:
            raise ValueError("max_replans must be >= 0")
        self.cluster = cluster
        self.events = sorted(events, key=lambda e: e.time)
        self.drift_threshold = drift_threshold
        self.max_replans = max_replans
        self.obs = obs

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self, entries: list[AdaptiveEntry]) -> AdaptiveReport:
        """Plan, watch, cut, re-plan; returns the full timing report."""
        journal = RangeJournal()
        pieces: dict[str, list[AdaptivePiece]] = {e.key: [] for e in entries}
        finish_s: dict[str, float] = {}
        rounds: list[AdaptiveRound] = []
        live = [self._decompose(e) for e in entries]
        t, replans, wasted_mb, wire_mb = 0.0, 0, 0.0, 0.0
        while live:
            r = len(rounds)
            span = None
            if self.obs is not None:
                span = self.obs.tracer.begin(
                    f"adaptive.round:{r}", actor="adaptive", cat="adaptive",
                    round=r, t_start_s=t, keys=[lv.entry.key for lv in live],
                    schemes=sorted({lv.scheme for lv in live}),
                )
            try:
                base, shifted = self._future(t)
                tasks = [tk for lv in live for tk in lv.tasks]
                sim = FluidSimulator(base)
                prob = sim.compile(tasks)
                run = sim.start(prob, events=shifted)
                boundary, drift, drift_task = None, 0.0, None
                if shifted and replans < self.max_replans:
                    boundary, drift, drift_task = self._first_drift(
                        run, sim.start(prob).advance(), shifted
                    )
                scheme_by_key = {lv.entry.key: lv.scheme for lv in live}
                if boundary is None:
                    # undisturbed (or out of re-plan budget): finish here
                    part = run.advance().result()
                    for lv in live:
                        self._finalize(lv, part, t, r, journal, pieces, finish_s)
                    wire_mb += sum(_wire(tk, 1.0) for tk in tasks)
                    rounds.append(AdaptiveRound(
                        index=r, t_start_s=t, duration_s=part.makespan,
                        boundary_s=None, drift=drift, drift_task=drift_task,
                        scheme_by_key=scheme_by_key, wasted_mb=0.0,
                    ))
                    break
                # drift: the run is paused at the offending event boundary
                part = run.result()
                round_waste = 0.0
                still: list[_Live] = []
                for lv in live:
                    done, waste, moved = self._commit_partial(
                        lv, part, boundary, t, r, journal, pieces, finish_s
                    )
                    round_waste += waste
                    wire_mb += moved
                    if not done:
                        still.append(lv)
                wasted_mb += round_waste
                rounds.append(AdaptiveRound(
                    index=r, t_start_s=t, duration_s=boundary,
                    boundary_s=t + boundary, drift=drift, drift_task=drift_task,
                    scheme_by_key=scheme_by_key, wasted_mb=round_waste,
                ))
                t += boundary
                live = still
                if live:
                    replans += 1
                    self._replan(live, t, r + 1)
            finally:
                if span is not None:
                    self.obs.tracer.unwind(span)

        makespan = max(finish_s.values(), default=0.0)
        if self.obs is not None:
            m = self.obs.metrics
            m.counter("adaptive.runs").inc()
            m.counter("adaptive.rounds").inc(len(rounds))
            m.counter("adaptive.replans").inc(replans)
            m.gauge("adaptive.makespan_s").set(makespan)
            m.gauge("adaptive.wasted_mb").set(wasted_mb)
        return AdaptiveReport(
            scheme=entries[0].scheme if entries else "hmbr",
            makespan_s=makespan,
            finish_s=finish_s,
            replans=replans,
            rounds=rounds,
            wasted_mb=wasted_mb,
            bytes_on_wire_mb_model=wire_mb,
            pieces=pieces,
            journal=journal,
        )

    # ------------------------------------------------------------------ #
    # round 0: decompose the static plans
    # ------------------------------------------------------------------ #
    def _decompose(self, e: AdaptiveEntry) -> _Live:
        """Split the static plan into anchored, rebuildable sub-plans."""
        if e.scheme not in ADAPTIVE_SCHEMES:
            raise ValueError(
                f"scheme {e.scheme!r} is not adaptive-capable; "
                f"choose from {ADAPTIVE_SCHEMES}"
            )
        parts = _PARTS[e.scheme]
        cuts = (0.0, e.plan.meta["p0"], 1.0) if len(parts) > 1 else (0.0, 1.0)
        subs = []
        for i, (kind, tag) in enumerate(parts):
            prefix = e.ctx.prefix(tag)
            subs.append(_Sub(
                kind, e.ctx, prefix, _shape(kind, e.ctx, e.plan.meta),
                cuts[i], cuts[i + 1], i > 0,
                [tk for tk in e.plan.tasks if tk.task_id.startswith(prefix + ":")],
            ))
        return _Live(
            entry=e, scheme=e.scheme, subs=subs,
            tasks=list(e.plan.tasks), plan0=e.plan,
        )

    # ------------------------------------------------------------------ #
    # drift detection
    # ------------------------------------------------------------------ #
    def _first_drift(self, run, ref, shifted):
        """Advance ``run`` to the first event boundary where a flow drifts.

        ``run`` is the observed run under the event trace, ``ref`` the
        finished quiet run of the same tasks — the plan-time prediction.
        The observed run pauses at each event boundary it lives to see,
        and every flow in progress there is compared against its
        predicted rate; a flow the prediction says should already be
        finished counts as fully drifted (1.0).  Returns ``(boundary,
        worst_drift, worst_task)`` with ``run`` paused at the boundary, or
        ``(None, last_worst, last_task)`` when nothing trips.
        """
        worst, worst_tid = 0.0, None
        for tb in sorted({ev.time for ev in shifted if ev.time > _TINY}):
            if run.advance(tb).done:
                break
            ref_rates = ref.rates_at(tb)
            tb_worst, tb_tid = 0.0, None
            for tid, ro in run.rates_at(tb).items():
                rr = ref_rates.get(tid, 0.0)
                d = abs(ro - rr) / rr if rr > _TINY else float(ro > _TINY)
                if d > tb_worst:
                    tb_worst, tb_tid = d, tid
            if tb_worst > worst:
                worst, worst_tid = tb_worst, tb_tid
            if tb_worst > self.drift_threshold:
                return tb, tb_worst, tb_tid
        return None, worst, worst_tid

    # ------------------------------------------------------------------ #
    # committing
    # ------------------------------------------------------------------ #
    def _sub_piece(self, lv, sub, lo, hi, r, journal, pieces) -> None:
        """Journal ``[lo, hi)`` of one sub-plan and record its ops piece."""
        if hi - lo <= _TINY:
            return
        lower, outputs = sub.lower, sub.outputs
        if lower is None:
            _, lower, outputs = sub.build(lo, hi)
            ops = lower(lo, hi)
        elif abs(lo - sub.lo) <= _TINY and abs(hi - sub.hi) <= _TINY:
            ops = lower(sub.lo, sub.hi)  # the whole range, cut within an ulp
        else:
            ops = lower(lo, hi)
        key = lv.entry.key
        piece_id = f"{key}:r{r}:{sub.kind}@{lo:.6f}"
        journal.commit(
            key, lo, hi, round_index=r, scheme=sub.kind, piece_id=piece_id
        )
        pieces[key].append(AdaptivePiece(
            key=key, lo=lo, hi=hi, scheme=sub.kind, round_index=r,
            piece_id=piece_id, ops=tuple(ops), outputs=dict(outputs),
        ))

    def _finalize(self, lv, run_result, t, r, journal, pieces, finish_s) -> None:
        """The entry's current round ran to completion: commit everything."""
        key = lv.entry.key
        finish = max(
            (run_result.finish_times.get(tk.task_id, run_result.makespan)
             for tk in lv.tasks),
            default=0.0,
        )
        finish_s[key] = t + finish
        if lv.plan0 is not None and not pieces[key]:
            # never re-planned: one whole-range piece reusing the static
            # plan's ops verbatim (same buffers, same HMBR concat)
            piece_id = f"{key}:r{r}:static"
            journal.commit(
                key, 0.0, 1.0, round_index=r, scheme=lv.scheme, piece_id=piece_id
            )
            pieces[key].append(AdaptivePiece(
                key=key, lo=0.0, hi=1.0, scheme=lv.scheme, round_index=r,
                piece_id=piece_id, ops=tuple(lv.plan0.ops),
                outputs=dict(lv.plan0.outputs),
            ))
            return
        for sub in lv.subs:
            self._sub_piece(lv, sub, sub.lo, sub.hi, r, journal, pieces)

    def _commit_partial(self, lv, part, boundary, t, r, journal, pieces, finish_s):
        """Commit what the cut round finished end to end; shrink the entry.

        Returns ``(done, wasted_mb, moved_mb)``.  A sub-plan's committable
        fraction is the *minimum* completed fraction over its flows — a
        range only counts once every pipeline stage carried it (CR's
        redistribution included), so partially-fetched volume that never
        reached the new nodes is waste, not progress.
        """
        progress: dict[str, float] = {}
        for tk in lv.tasks:
            tid = tk.task_id
            if tid in part.finish_times:
                p = 1.0
            else:
                size = getattr(tk, "size_mb", 0.0)
                rem = part.remaining_mb.get(tid)
                if rem is None or size <= _TINY:
                    p = 1.0
                else:
                    p = 1.0 - rem / size
            progress[tid] = min(max(p, 0.0), 1.0)
        moved = sum(_wire(tk, progress[tk.task_id]) for tk in lv.tasks)
        if all(p >= 1.0 - _DONE_FRAC for p in progress.values()):
            self._finalize(lv, part, t, r, journal, pieces, finish_s)
            return True, 0.0, moved

        waste = 0.0
        cut_lo, cut_hi = lv.lo, lv.hi
        for sub in lv.subs:
            c = min((progress[tk.task_id] for tk in sub.tasks), default=1.0)
            waste += sum(
                _wire(tk, max(0.0, progress[tk.task_id] - c))
                for tk in sub.tasks
            )
            width = sub.hi - sub.lo
            if not sub.top:
                cut = sub.lo + c * width
                self._sub_piece(lv, sub, sub.lo, cut, r, journal, pieces)
                cut_lo = max(cut_lo, cut)
            else:
                cut = sub.hi - c * width
                self._sub_piece(lv, sub, cut, sub.hi, r, journal, pieces)
                cut_hi = min(cut_hi, cut)
        lv.lo, lv.hi = cut_lo, cut_hi
        lv.plan0 = None
        if lv.hi - lv.lo <= _DONE_FRAC:
            finish_s[lv.entry.key] = t + boundary
            return True, waste, moved
        return False, waste, moved

    # ------------------------------------------------------------------ #
    # re-planning
    # ------------------------------------------------------------------ #
    def _replan(self, live, t, r) -> None:
        """Re-plan every live entry's remaining range at instant ``t``.

        One scheme is chosen globally per round (mirroring the static
        path's one-scheme rounds): each candidate is built for all live
        entries on the current capacity snapshot and scored by a merged
        fluid run against the still-pending future events; the smallest
        predicted makespan wins, ties keeping candidate order.
        """
        cluster_now, shifted = self._future(t)
        small = max(lv.hi - lv.lo for lv in live) < MIN_REMAINING_FRAC
        cands = (live[0].scheme,) if small else CANDIDATES
        best = None
        for cand in cands:
            builds = self._build_candidate(live, cand, cluster_now, shifted, r)
            tasks = [tk for subs in builds for sub in subs for tk in sub.tasks]
            score = FluidSimulator(cluster_now).run(tasks, events=shifted).makespan
            if best is None or score < best[0] - _TINY:
                best = (score, cand, builds)
        _, cand, builds = best
        for lv, subs in zip(live, builds):
            lv.scheme, lv.subs = cand, subs
            lv.tasks = [tk for sub in subs for tk in sub.tasks]
        if self.obs is not None:
            self.obs.tracer.instant(
                f"adaptive.replan:{r}", actor="adaptive", cat="adaptive",
                round=r, scheme=cand, t_s=t,
                remaining={lv.entry.key: lv.hi - lv.lo for lv in live},
            )

    def _build_candidate(self, live, cand, cluster_now, shifted, r) -> list[list[_Sub]]:
        """Build ``cand`` over each live entry's remaining range.

        Returns each entry's sub-plans, aligned with ``live``, on a context
        re-based onto the current capacities with freshly picked survivors.
        HMBR splits every entry at one *common* relative split, searched
        against the predicted future events (the volume bound that splits
        a static round per stripe cannot see a bandwidth change).
        """
        parts = _PARTS[cand]
        builds = []
        for lv in live:
            ctx = dataclasses.replace(
                lv.entry.ctx, cluster=cluster_now, survivor_policy=REPLAN_SURVIVORS
            )
            builds.append([
                _Sub(kind, ctx, ctx.prefix(f"a{r}.{tag}"), _shape(kind, ctx, None),
                     lv.lo, lv.hi, i > 0)
                for i, (kind, tag) in enumerate(parts)
            ])
        if len(parts) > 1:
            cr, ir = (
                [tk for subs in builds for tk in subs[i].build(subs[i].lo, subs[i].hi)[0]]
                for i in (0, 1)
            )
            q, _ = search_split(cr, ir, cluster_now, events=shifted)
            for lv, (low, high) in zip(live, builds):
                low.hi = high.lo = lv.lo + q * (lv.hi - lv.lo)
        for subs in builds:
            for sub in subs:
                sub.tasks, sub.lower, sub.outputs = sub.build(sub.lo, sub.hi)
        return builds

    def _future(self, t: float):
        """The capacity snapshot at instant ``t`` (the base cluster at 0)
        and the events still to come, re-timed to start at ``t``."""
        shifted = [
            dataclasses.replace(ev, time=ev.time - t)
            for ev in self.events
            if ev.time > t + _TINY
        ]
        if t <= 0.0 and not any(ev.time <= _TINY for ev in self.events):
            return self.cluster, shifted
        return cluster_at(self.cluster, self.events, t), shifted


def _wire(task, frac: float) -> float:
    """Modeled wire MB of ``frac`` of a task (pipeline hops each count)."""
    hops = getattr(task, "hops", ())
    return getattr(task, "size_mb", 0.0) * len(hops) * frac
