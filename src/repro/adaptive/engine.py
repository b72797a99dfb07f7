"""Adaptive re-planning over rapidly-changing networks (the timing plane).

The static planners (:mod:`repro.repair`) pick helpers, a CR center and
HMBR's split ratio against the bandwidth snapshot that exists at plan
time.  On a quiet network that is optimal; under churn the plan's
predicted per-flow rates and the observed ones diverge, and the repair
drags at the speed of whichever link degraded.  :class:`AdaptiveEngine`
closes the loop:

1. Round 0 simulates the *exact static plans* (built by the coordinator's
   own planning helpers) against the bandwidth-event trace, alongside a
   quiet reference run — the plan-time rate prediction.
2. At every event boundary it compares observed vs predicted per-flow
   rates.  The first boundary where some flow drifts past
   ``drift_threshold`` triggers a re-plan.
3. The round is cut at that boundary (a horizon-bounded fluid run); the
   volume each sub-plan completed *end to end* is committed into a
   :class:`~repro.adaptive.journal.RangeJournal` as a word-aligned
   fraction-range piece, and only the remaining range is re-planned —
   helpers, center, forwarding shape and HMBR's ``p0`` are all re-chosen
   against the *current* capacities (and the still-pending future
   events), picking the best of the candidate schemes (``cr`` / ``ir`` /
   ``hmbr`` / ``mlf``).
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
from typing import Any, Callable

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


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs for the re-planning loop.

    ``drift_threshold`` is the relative per-flow rate error that arms a
    re-plan (0.2 = a flow running 20% off its plan-time prediction).
    ``max_replans`` bounds the loop; once spent, the current plans run to
    completion.  ``min_remaining_frac`` skips the candidate-scheme search
    when almost nothing is left (the incumbent scheme just finishes).
    ``candidates`` is the scheme pool re-plan rounds choose from;
    ``mlf_degree`` fixes the MLF tree fan-out (``None`` = ~sqrt(k)).
    ``repick_survivors`` lets re-plan rounds choose the currently
    fastest-uploading k survivors instead of keeping round 0's helpers.
    """

    drift_threshold: float = 0.2
    max_replans: int = 8
    min_remaining_frac: float = 0.02
    candidates: tuple[str, ...] = ("hmbr", "mlf", "cr", "ir")
    mlf_degree: int | None = None
    repick_survivors: bool = True

    def __post_init__(self) -> None:
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if self.max_replans < 0:
            raise ValueError("max_replans must be >= 0")
        bad = [c for c in self.candidates if c not in ADAPTIVE_SCHEMES]
        if bad:
            raise ValueError(
                f"unsupported candidate scheme(s) {bad}; "
                f"choose from {ADAPTIVE_SCHEMES}"
            )


@dataclass(frozen=True)
class AdaptiveEntry:
    """One stripe's repair as the engine sees it.

    ``plan`` must be the plan the *static* path would run (built by the
    coordinator's own helpers, common HMBR split included) — round 0
    simulates it verbatim, which is what makes quiet-network adaptivity a
    bit-exact no-op.  ``weight`` scales the entry's flows in the shared
    fluid solve (scheduler-style priorities).
    """

    key: str
    ctx: RepairContext
    scheme: str
    plan: RepairPlan
    weight: float = 1.0


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
    drift_threshold: float
    #: True when the event trace was empty — round 0 ran the static plans
    #: to completion and nothing was re-planned.
    quiet: bool

    @property
    def n_rounds(self) -> int:
        """Planning rounds run (1 = static behavior)."""
        return len(self.rounds)


@dataclass
class _Sub:
    """One scheme-homogeneous slice of an entry's current round plan."""

    kind: str
    prefix: str
    lo: float
    hi: float
    #: which end of ``[lo, hi)`` the committed range grows from.  The last
    #: sub-plan of an entry anchors at the top so the entry's remaining
    #: range stays a single contiguous interval across commits.
    anchor: str
    tasks: list
    ops: list | None
    outputs: dict | None
    build: Callable[[float, float], tuple]


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

    ``cluster`` is never mutated: re-plan rounds look at capacity
    snapshots built by :func:`repro.simnet.network.cluster_at`.  ``obs``
    (an :class:`repro.obs.Observability`, optional) receives per-round
    spans and ``adaptive.*`` metrics.
    """

    def __init__(self, cluster, *, events=(), config=None, obs=None) -> None:
        self.cluster = cluster
        self.events = sorted(events, key=lambda e: e.time)
        self.config = config or AdaptiveConfig()
        self.obs = obs

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self, entries: list[AdaptiveEntry]) -> AdaptiveReport:
        """Plan, watch, cut, re-plan; returns the full timing report."""
        cfg = self.config
        journal = RangeJournal()
        pieces: dict[str, list[AdaptivePiece]] = {e.key: [] for e in entries}
        finish_s: dict[str, float] = {}
        rounds: list[AdaptiveRound] = []
        quiet = not self.events
        live: list[_Live] = []
        for e in entries:
            if e.scheme not in ADAPTIVE_SCHEMES:
                raise ValueError(
                    f"scheme {e.scheme!r} is not adaptive-capable; "
                    f"choose from {ADAPTIVE_SCHEMES}"
                )
            live.append(self._decompose(e))
        scheme0 = entries[0].scheme if entries else "hmbr"

        t = 0.0
        replans = 0
        wasted_mb = 0.0
        wire_mb = 0.0
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
                base = self._cluster_at(t)
                shifted = [
                    dataclasses.replace(ev, time=ev.time - t)
                    for ev in self.events
                    if ev.time > t + _TINY
                ]
                tasks = [tk for lv in live for tk in self._weighted(lv)]
                obs_run = FluidSimulator(base).run(
                    tasks, events=shifted, record_trace=True
                )
                boundary, drift, drift_task = None, 0.0, None
                if shifted and replans < cfg.max_replans:
                    ref_run = FluidSimulator(base).run(tasks, record_trace=True)
                    boundary, drift, drift_task = self._first_drift(
                        obs_run, ref_run, shifted, cfg.drift_threshold
                    )
                if boundary is None:
                    # undisturbed (or out of re-plan budget): finish here
                    for lv in live:
                        self._finalize(lv, obs_run, t, r, journal, pieces, finish_s)
                    wire_mb += sum(self._wire(tk, 1.0) for tk in tasks)
                    rounds.append(AdaptiveRound(
                        index=r, t_start_s=t, duration_s=obs_run.makespan,
                        boundary_s=None, drift=drift, drift_task=drift_task,
                        scheme_by_key={lv.entry.key: lv.scheme for lv in live},
                        wasted_mb=0.0,
                    ))
                    live = []
                    continue
                # drift: cut the round at the offending event boundary
                part = FluidSimulator(base).run(
                    tasks, events=shifted, horizon_s=boundary
                )
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
                    scheme_by_key={lv.entry.key: lv.scheme for lv in live},
                    wasted_mb=round_waste,
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
            scheme=scheme0,
            makespan_s=makespan,
            finish_s=finish_s,
            replans=replans,
            rounds=rounds,
            wasted_mb=wasted_mb,
            bytes_on_wire_mb_model=wire_mb,
            pieces=pieces,
            journal=journal,
            drift_threshold=cfg.drift_threshold,
            quiet=quiet,
        )

    # ------------------------------------------------------------------ #
    # round 0: decompose the static plans
    # ------------------------------------------------------------------ #
    def _decompose(self, e: AdaptiveEntry) -> _Live:
        """Split the static plan into anchored, rebuildable sub-plans."""
        ctx, meta = e.ctx, e.plan.meta
        if e.scheme == "cr":
            prefix = ctx.prefix("cr")
            center = meta["center"]
            subs = [_Sub(
                "cr", prefix, 0.0, 1.0, "bottom", list(e.plan.tasks),
                None, None,
                lambda lo, hi, c=ctx, p=prefix, n=center: add_centralized(c, p, lo, hi, n),
            )]
        elif e.scheme == "ir":
            prefix = ctx.prefix("ir")
            paths = build_chain_paths(ctx, meta.get("chain_order", "index"))
            subs = [_Sub(
                "ir", prefix, 0.0, 1.0, "bottom", list(e.plan.tasks),
                None, None,
                lambda lo, hi, c=ctx, p=prefix, pa=paths: add_independent(c, p, lo, hi, pa),
            )]
        elif e.scheme == "mlf":
            prefix = ctx.prefix("mlf")
            degree, order = meta["degree"], meta["order"]
            subs = [_Sub(
                "mlf", prefix, 0.0, 1.0, "bottom", list(e.plan.tasks),
                None, None,
                lambda lo, hi, c=ctx, p=prefix, d=degree, o=order: add_multilevel(
                    c, p, lo, hi, degree=d, order=o
                ),
            )]
        elif e.scheme == "hmbr":
            p0, center = meta["p0"], meta["center"]
            paths = build_chain_paths(ctx, meta.get("chain_order", "index"))
            crp, irp = ctx.prefix("h.cr"), ctx.prefix("h.ir")
            cr_tasks = [tk for tk in e.plan.tasks if tk.task_id.startswith(crp + ":")]
            ir_tasks = [tk for tk in e.plan.tasks if tk.task_id.startswith(irp + ":")]
            subs = [
                _Sub(
                    "cr", crp, 0.0, p0, "bottom", cr_tasks, None, None,
                    lambda lo, hi, c=ctx, p=crp, n=center: add_centralized(c, p, lo, hi, n),
                ),
                _Sub(
                    "ir", irp, p0, 1.0, "top", ir_tasks, None, None,
                    lambda lo, hi, c=ctx, p=irp, pa=paths: add_independent(c, p, lo, hi, pa),
                ),
            ]
        else:  # pragma: no cover - guarded by run()
            raise ValueError(f"cannot decompose scheme {e.scheme!r}")
        return _Live(
            entry=e, scheme=e.scheme, subs=subs,
            tasks=list(e.plan.tasks), plan0=e.plan,
        )

    # ------------------------------------------------------------------ #
    # drift detection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _rates_at(trace, t: float) -> dict[str, float]:
        """Per-flow rates of the trace segment containing instant ``t``."""
        for t0, t1, rates in trace:
            if t0 <= t < t1:
                return rates
        return {}

    def _first_drift(self, obs_run, ref_run, shifted, threshold):
        """First event boundary where an active flow's rate drifts too far.

        ``obs_run`` is the simulation under the event trace, ``ref_run``
        the quiet run of the same tasks — the plan-time prediction.  At
        each boundary, every flow still active in the observed run is
        compared against its predicted rate; a flow the prediction says
        should already be finished counts as fully drifted (1.0).
        Returns ``(boundary, worst_drift, worst_task)`` or
        ``(None, last_worst, last_task)`` when nothing trips.
        """
        boundaries = sorted({
            ev.time for ev in shifted
            if _TINY < ev.time < obs_run.makespan - _TINY
        })
        worst, worst_tid = 0.0, None
        for tb in boundaries:
            obs_rates = self._rates_at(obs_run.trace, tb)
            ref_rates = self._rates_at(ref_run.trace, tb)
            tb_worst, tb_tid = 0.0, None
            for tid, ro in obs_rates.items():
                rr = ref_rates.get(tid, 0.0)
                if rr <= _TINY:
                    d = 1.0 if ro > _TINY else 0.0
                else:
                    d = abs(ro - rr) / rr
                if d > tb_worst:
                    tb_worst, tb_tid = d, tid
            if tb_worst > worst:
                worst, worst_tid = tb_worst, tb_tid
            if tb_worst > threshold:
                return tb, tb_worst, tb_tid
        return None, worst, worst_tid

    # ------------------------------------------------------------------ #
    # committing
    # ------------------------------------------------------------------ #
    def _sub_piece(self, lv, sub, lo, hi, r, journal, pieces) -> None:
        """Journal ``[lo, hi)`` of one sub-plan and record its ops piece."""
        if hi - lo <= _TINY:
            return
        if sub.ops is not None and abs(lo - sub.lo) <= _TINY and abs(hi - sub.hi) <= _TINY:
            ops, outputs = sub.ops, sub.outputs
        else:
            _, ops, outputs = sub.build(lo, hi)
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
        moved = sum(self._wire(tk, progress[tk.task_id]) for tk in lv.tasks)
        if all(p >= 1.0 - _DONE_FRAC for p in progress.values()):
            self._finalize(lv, part, t, r, journal, pieces, finish_s)
            return True, 0.0, moved

        waste = 0.0
        cut_lo, cut_hi = lv.lo, lv.hi
        for sub in lv.subs:
            c = min((progress[tk.task_id] for tk in sub.tasks), default=1.0)
            waste += sum(
                self._wire(tk, max(0.0, progress[tk.task_id] - c))
                for tk in sub.tasks
            )
            width = sub.hi - sub.lo
            if sub.anchor == "bottom":
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
        cfg = self.config
        cluster_now = self._cluster_at(t)
        shifted = [
            dataclasses.replace(ev, time=ev.time - t)
            for ev in self.events
            if ev.time > t + _TINY
        ]
        if max(lv.hi - lv.lo for lv in live) < cfg.min_remaining_frac:
            cands = [live[0].scheme]
        else:
            cands = list(dict.fromkeys(cfg.candidates))
        best = None
        for cand in cands:
            builds = self._build_candidate(live, cand, cluster_now, shifted, r)
            tasks = [
                tk
                for lv, (_subs, raw) in zip(live, builds)
                for tk in self._weighted_tasks(raw, lv.entry.weight)
            ]
            score = FluidSimulator(cluster_now).run(tasks, events=shifted).makespan
            if best is None or score < best[0] - _TINY:
                best = (score, cand, builds)
        _, cand, builds = best
        for lv, (subs, raw) in zip(live, builds):
            lv.scheme = cand
            lv.subs = subs
            lv.tasks = raw
        if self.obs is not None:
            self.obs.tracer.instant(
                f"adaptive.replan:{r}", actor="adaptive", cat="adaptive",
                round=r, scheme=cand, t_s=t,
                remaining={lv.entry.key: lv.hi - lv.lo for lv in live},
            )

    def _build_candidate(self, live, cand, cluster_now, shifted, r):
        """Build ``cand`` over each live entry's remaining range.

        Returns ``[(subs, tasks), ...]`` aligned with ``live``.  HMBR uses
        one *common* relative split across the entries (searched against
        the predicted future events, like the static common split); the
        other schemes build independently per entry.
        """
        if cand == "hmbr":
            per = []
            for lv in live:
                ctx = self._ctx_now(lv, cluster_now)
                center = ctx.pick_center("fastest-downlink")
                paths = build_chain_paths(ctx, "uplink-desc")
                crp = ctx.prefix(f"a{r}.h.cr")
                irp = ctx.prefix(f"a{r}.h.ir")
                cr_full, _, _ = add_centralized(ctx, crp, lv.lo, lv.hi, center)
                ir_full, _, _ = add_independent(ctx, irp, lv.lo, lv.hi, paths)
                per.append((lv, ctx, center, paths, crp, irp, cr_full, ir_full))
            cr_all = [tk for entry in per for tk in entry[6]]
            ir_all = [tk for entry in per for tk in entry[7]]
            q, _ = search_split(cr_all, ir_all, cluster_now, events=shifted)
            out = []
            for lv, ctx, center, paths, crp, irp, _cr, _ir in per:
                mid = lv.lo + q * (lv.hi - lv.lo)
                cr_tasks, cr_ops, cr_out = add_centralized(ctx, crp, lv.lo, mid, center)
                ir_tasks, ir_ops, ir_out = add_independent(ctx, irp, mid, lv.hi, paths)
                subs = [
                    _Sub(
                        "cr", crp, lv.lo, mid, "bottom", cr_tasks, cr_ops, cr_out,
                        lambda lo, hi, c=ctx, p=crp, n=center: add_centralized(c, p, lo, hi, n),
                    ),
                    _Sub(
                        "ir", irp, mid, lv.hi, "top", ir_tasks, ir_ops, ir_out,
                        lambda lo, hi, c=ctx, p=irp, pa=paths: add_independent(c, p, lo, hi, pa),
                    ),
                ]
                out.append((subs, cr_tasks + ir_tasks))
            return out
        out = []
        for lv in live:
            ctx = self._ctx_now(lv, cluster_now)
            if cand == "cr":
                prefix = ctx.prefix(f"a{r}.cr")
                center = ctx.pick_center("fastest-downlink")
                tasks, ops, outs = add_centralized(ctx, prefix, lv.lo, lv.hi, center)
                build = lambda lo, hi, c=ctx, p=prefix, n=center: add_centralized(c, p, lo, hi, n)
            elif cand == "ir":
                prefix = ctx.prefix(f"a{r}.ir")
                paths = build_chain_paths(ctx, "uplink-desc")
                tasks, ops, outs = add_independent(ctx, prefix, lv.lo, lv.hi, paths)
                build = lambda lo, hi, c=ctx, p=prefix, pa=paths: add_independent(c, p, lo, hi, pa)
            else:  # mlf
                prefix = ctx.prefix(f"a{r}.mlf")
                degree = self.config.mlf_degree
                tasks, ops, outs = add_multilevel(
                    ctx, prefix, lv.lo, lv.hi, degree=degree, order="uplink-desc"
                )
                build = lambda lo, hi, c=ctx, p=prefix, d=degree: add_multilevel(
                    c, p, lo, hi, degree=d, order="uplink-desc"
                )
            subs = [_Sub(cand, prefix, lv.lo, lv.hi, "bottom", tasks, ops, outs, build)]
            out.append((subs, list(tasks)))
        return out

    def _ctx_now(self, lv, cluster_now) -> RepairContext:
        """The entry's context re-based onto the current capacity snapshot."""
        policy = (
            "best-uplink" if self.config.repick_survivors
            else lv.entry.ctx.survivor_policy
        )
        return dataclasses.replace(
            lv.entry.ctx, cluster=cluster_now, survivor_policy=policy
        )

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #
    def _cluster_at(self, t: float):
        """Capacity snapshot at instant ``t`` (the base cluster at 0)."""
        if t <= 0.0 and not any(ev.time <= _TINY for ev in self.events):
            return self.cluster
        return cluster_at(self.cluster, self.events, t)

    def _weighted(self, lv) -> list:
        return self._weighted_tasks(lv.tasks, lv.entry.weight)

    @staticmethod
    def _weighted_tasks(tasks, weight: float) -> list:
        if weight == 1.0:
            return list(tasks)
        return [
            dataclasses.replace(tk, weight=tk.weight * weight) for tk in tasks
        ]

    @staticmethod
    def _wire(task, frac: float) -> float:
        """Modeled wire MB of ``frac`` of a task (pipeline hops each count)."""
        hops = getattr(task, "hops", ())
        return getattr(task, "size_mb", 0.0) * len(hops) * frac
