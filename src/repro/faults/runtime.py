"""Fault-aware repair runtime: retry, backoff, timeout, and re-planning.

This is the degraded-repair state machine described in ``docs/FAULTS.md``:

* the injector's logical clock ticks once per executed op, and every
  responsive agent heartbeats on each tick;
* a **transient** fault (dropped transfer, flapping peer) backs off
  exponentially and *resumes* the same plan from its execution journal —
  completed ops are never redone;
* a **fatal** fault (dead helper, per-plan timeout) waits out the heartbeat
  timeout so :class:`~repro.system.heartbeat.HeartbeatMonitor` confirms the
  death, then re-plans the stripe from scratch over the surviving helpers
  and fresh spares;
* stripes already committed are never re-executed; rounds continue until no
  stripe is missing blocks and no scheduled fault remains to fire.

The runtime only ever *adds* behavior: it plans through the same
:func:`repro.repair.planner.plan_round`, runs ops through the same
:func:`~repro.system.agent.run_plan_ops` and commits through the same
:meth:`Coordinator.commit_outputs <repro.system.coordinator.Coordinator.
commit_outputs>` as a healthy round, and with an empty schedule it performs
the identical op sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ec.stripe import block_name
from repro.faults.errors import (
    DeadAgent,
    PlanTimeout,
    RepairAborted,
    StripeUnrecoverable,
    TransientFault,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.repair.plan import RepairPlan, TransferOp, rename_plan
from repro.repair.planner import RoundPlan, assign_spares, dead_hosts, plan_stripe
from repro.system.agent import ExecutionJournal, run_plan_ops

_MAX_ROUNDS = 32  # safety net: schedules are finite, rounds must terminate

#: ceiling on one exponential-backoff delay (seconds).  Without a cap
#: ``base * 2**attempt`` reaches minutes within a handful of retries and a
#: single flaky stripe can stall a whole storm round.
DEFAULT_MAX_BACKOFF_S = 30.0


def backoff_delay(attempt: int, base_s: float) -> float:
    """Capped exponential backoff (``attempt`` is 1-based):
    ``min(base_s * 2**(attempt-1), DEFAULT_MAX_BACKOFF_S)``."""
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    if base_s < 0:
        raise ValueError("backoff times must be non-negative")
    # cap the exponent too: 2**attempt overflows floats near attempt ~ 1024
    return min(base_s * 2 ** (min(attempt, 64) - 1), DEFAULT_MAX_BACKOFF_S)


@dataclass
class FaultRepairReport:
    """The fault runtime's audit trail (``RepairResult.report`` on its route)."""

    dead_nodes: list[int]
    rounds: int
    attempts: dict[int, int] = field(default_factory=dict)  # stripe -> attempts
    replans: int = 0
    retries: int = 0
    drops: int = 0
    delay_s: float = 0.0
    backoff_s: float = 0.0
    detections: list[int] = field(default_factory=list)
    events_fired: list[FaultEvent] = field(default_factory=list)
    #: data-plane bytes actually copied between agents (== bus delta)
    executed_transfer_bytes: int = 0
    #: subset of the above belonging to attempts that were later aborted
    wasted_transfer_bytes: int = 0
    #: MB the fluid simulator charged for the committed plans; conservation
    #: demands this equal the result's ``bytes_on_wire_mb_model`` (chaos
    #: tests assert it)
    sim_bytes_mb: float = 0.0


def _op_nodes(op) -> tuple[int, ...]:
    return (op.src_node, op.dst_node) if isinstance(op, TransferOp) else (op.node,)


class FaultRuntime:
    """Drives one coordinator repair round under an injector."""

    def __init__(
        self,
        coord,
        injector: FaultInjector,
        max_retries: int = 8,
        base_backoff_s: float = 0.5,
        plan_timeout_s: float | None = None,
    ):
        self.coord = coord
        self.injector = injector
        self.max_retries = max_retries
        self.base_backoff_s = base_backoff_s
        self.plan_timeout_s = plan_timeout_s
        self._replacements: dict[int, int] | None = None
        self._replacements_all: dict[int, int] = {}
        self._events: list[FaultEvent] = []
        self._detections: list[int] = []
        self.replans = 0
        self.retries = 0
        self.backoff_s = 0.0
        self.attempts: dict[int, int] = {}
        self.committed_bytes = 0
        self.wasted_bytes = 0

    @classmethod
    def from_request(cls, coord, req) -> "FaultRuntime":
        """The runtime a :class:`~repro.system.request.RepairRequest` describes.

        ``req.faults`` is a :class:`~repro.faults.schedule.FaultSchedule` or
        a prepared :class:`~repro.faults.injector.FaultInjector`; the
        request's retry/backoff/timeout knobs configure the state machine.
        The one place a request becomes a runtime, whichever route runs it.
        """
        injector = req.faults
        if isinstance(injector, FaultSchedule):
            injector = FaultInjector(
                injector, tick_s=0.001 if req.tick_s is None else req.tick_s
            )
        elif req.tick_s is not None:
            injector.tick_s = req.tick_s
        return cls(
            coord,
            injector,
            max_retries=req.max_retries,
            base_backoff_s=req.base_backoff_s,
            plan_timeout_s=req.plan_timeout_s,
        )

    @property
    def _obs(self):
        """The coordinator's observability session, if one is attached."""
        return getattr(self.coord, "obs", None)

    # ---------------------------------------------------------------- #
    # fault plumbing
    # ---------------------------------------------------------------- #
    def _sync_fired(self) -> None:
        """Apply data-plane side effects of every event fired since last sync.

        Events can fire from explicit clock advances *and* from inside the
        bus fault hook (a consumed delay moves the clock), so the runtime
        drains the injector's fired queue rather than trusting any single
        ``advance()`` return value.
        """
        obs = self._obs
        for ev in self.injector.drain_fired():
            self._events.append(ev)
            if obs is not None:
                obs.metrics.counter("faults.fired").inc()
                obs.metrics.counter(f"faults.fired.{ev.kind}").inc()
                obs.tracer.instant(
                    f"fault:{ev.kind}:{ev.target}", actor="faults", cat="fault",
                    kind=ev.kind, target=ev.target, param=ev.param, t_sim=ev.time,
                )
            agent = self.coord.agents.get(ev.target)
            if agent is None:
                continue
            if ev.kind == "kill" and agent.alive:
                agent.fail()
            elif ev.kind == "slow":
                agent.slowdown = ev.param

    def _beat_responsive(self) -> None:
        for i, agent in self.coord.agents.items():
            if agent.alive and self.injector.responsive(i):
                self.coord.monitor.beat(i, self.injector.now)

    def _tick(self) -> None:
        self.injector.tick()
        self._sync_fired()
        self._beat_responsive()

    def _heartbeat_detect(self) -> list[int]:
        """Wait out the heartbeat timeout and confirm deaths via the monitor."""
        jump = self.coord.monitor.timeout + self.injector.tick_s
        self.injector.advance(jump)
        self._sync_fired()
        self._beat_responsive()
        dead = self.coord.detect_failures(self.injector.now)
        obs = self._obs
        for d in dead:
            if d not in self._detections:
                self._detections.append(d)
                if obs is not None:
                    obs.metrics.counter("heartbeat.misses").inc()
                    obs.tracer.instant(
                        f"detect:{d}", actor="coordinator", cat="detection",
                        node=d, t_sim=self.injector.now,
                    )
        self._replacements = None  # the spare assignment must be recomputed
        return dead

    # ---------------------------------------------------------------- #
    # planning
    # ---------------------------------------------------------------- #
    def _node_alive(self, node: int) -> bool:
        return self.coord.cluster[node].alive and self.coord.agents[node].alive

    def _spare_map(self) -> dict[int, int]:
        """One spare per dead node, shared by every stripe this round."""
        if self._replacements is None:
            coord = self.coord
            dead = sorted(i for i in coord.agents if not self._node_alive(i))
            affected = coord.layout.stripes_with_failures(dead)
            self._replacements = assign_spares(
                coord.cluster, dead_hosts(coord.layout, affected), coord.free_spares()
            )
            self._replacements_all.update(self._replacements)
        return self._replacements

    def _failed_blocks(self, sid: int) -> list[int]:
        """Blocks of a stripe on a dead node or missing from their store."""
        coord = self.coord
        stripe = coord.layout[sid]
        failed = [
            b
            for b, node in enumerate(stripe.placement)
            if not self._node_alive(node)
            or not coord.agents[node].store.has(block_name(sid, b))
        ]
        surviving = stripe.n - len(failed)
        if surviving < coord.code.k or len(failed) > coord.code.m:
            raise StripeUnrecoverable(sid, surviving, coord.code.k)
        return failed

    def _prepare(self, sids, scheme: str) -> RoundPlan | None:
        """Contexts, centers and the HMBR splits for the broken ``sids``.

        Per-stripe plans are made lazily, right before each stripe runs,
        so they see every death confirmed while earlier stripes repaired.
        """
        affected = {}
        for sid in sids:
            failed = self._failed_blocks(sid)
            if failed:
                affected[sid] = failed
        if not affected:
            return None
        return self.coord.plan_round(
            scheme, affected, replacement_of=self._spare_map(), lazy=True
        )

    # ---------------------------------------------------------------- #
    # execution
    # ---------------------------------------------------------------- #
    def _gate(self, op, attempt_start: float) -> None:
        """Ahead of every op: tick the clock, enforce timeout and liveness."""
        self._tick()
        elapsed = self.injector.now - attempt_start
        if self.plan_timeout_s is not None and elapsed > self.plan_timeout_s:
            raise PlanTimeout(elapsed, self.plan_timeout_s)
        for node in _op_nodes(op):
            if not self.coord.agents[node].alive:
                raise DeadAgent(node)

    def _plan_touches_dead(self, plan: RepairPlan) -> bool:
        return any(
            not self.coord.agents[node].alive
            for op in plan.ops
            for node in _op_nodes(op)
        )

    def _repair_stripe(
        self, sid: int, scheme: str, verify: bool, prebuilt: tuple, p: float | None
    ) -> RepairPlan | None:
        """Repair one stripe to completion; returns the committed plan."""
        coord = self.coord
        journal = ExecutionJournal()
        attempt = 0
        plan: RepairPlan | None = None
        ctx_center = prebuilt
        attempt_start = self.injector.now
        using_prebuilt = True
        obs = self._obs
        while True:
            if plan is None:
                try:
                    if ctx_center is None:
                        rnd = self._prepare([sid], scheme)
                        if rnd is None:  # healthy again (nothing to repair)
                            return None
                        ctx_center = rnd.work[0][1:]
                    ctx, center = ctx_center
                    plan = plan_stripe(ctx, center, scheme, p if using_prebuilt else None)
                except ValueError:
                    # a context prebuilt at round start can go stale while
                    # earlier stripes repaired (helpers died since): rebuild
                    if not using_prebuilt:
                        raise
                    using_prebuilt = False
                    ctx_center = None
                    continue
                self.wasted_bytes += journal.transfer_bytes
                journal.reset()
                coord.clear_scratch()
                attempt_start = self.injector.now
            att_span = None
            if obs is not None:
                att_span = obs.tracer.begin(
                    f"stripe:{sid}:attempt:{attempt + 1}", actor="coordinator",
                    cat="attempt", stripe=sid, attempt=attempt + 1,
                    t_sim=self.injector.now,
                )
            try:
                run_plan_ops(
                    plan.ops, coord.agents, coord.bus, journal=journal,
                    before_op=lambda op: self._gate(op, attempt_start),
                )
                self._sync_fired()  # a delay consumed by the last op may have fired kills
                for node, _ in plan.outputs.values():
                    if not coord.agents[node].alive:
                        raise DeadAgent(node)  # repaired buffer died with its host
                coord.commit_outputs(sid, plan.outputs, verify=False)
                if verify and all(map(self._node_alive, coord.layout[sid].placement)):
                    # if another member died mid-plan the next round repairs
                    # it; parity can only be re-checked once all are up
                    coord.verify_stripe(sid)
                self.committed_bytes += journal.transfer_bytes
                self.attempts[sid] = self.attempts.get(sid, 0) + attempt + 1
                if att_span is not None:
                    obs.tracer.unwind(att_span)
                    att_span.args["outcome"] = "committed"
                return plan
            except TransientFault as err:
                if att_span is not None:
                    obs.tracer.unwind(att_span)
                    att_span.args["outcome"] = f"transient:{type(err).__name__}"
                if obs is not None:
                    obs.metrics.counter("repair.retries").inc()
                attempt += 1
                self.retries += 1
                if attempt > self.max_retries:
                    raise RepairAborted(sid, attempt, err) from err
                backoff = backoff_delay(attempt, self.base_backoff_s)
                flap_until = getattr(err, "until", None)
                if flap_until is not None:
                    # no point retrying inside the flap window
                    backoff = max(backoff, flap_until - self.injector.now + self.injector.tick_s)
                self.backoff_s += backoff
                if obs is not None:
                    obs.metrics.histogram("repair.backoff_s").observe(backoff)
                self.injector.advance(backoff)
                self._sync_fired()
                self._beat_responsive()
                if self._plan_touches_dead(plan):
                    # a helper died while we were backing off: re-plan
                    self.replans += 1
                    if obs is not None:
                        obs.metrics.counter("repair.replans").inc()
                    self._heartbeat_detect()
                    plan, ctx_center, using_prebuilt = None, None, False
            except (DeadAgent, PlanTimeout) as err:
                if att_span is not None:
                    obs.tracer.unwind(att_span)
                    att_span.args["outcome"] = type(err).__name__
                attempt += 1
                if attempt > self.max_retries:
                    raise RepairAborted(sid, attempt, err) from err
                self.replans += 1
                if obs is not None:
                    obs.metrics.counter("repair.replans").inc()
                if isinstance(err, DeadAgent):
                    self._heartbeat_detect()
                plan, ctx_center, using_prebuilt = None, None, False

    # ---------------------------------------------------------------- #
    # entry points
    # ---------------------------------------------------------------- #
    def _round(self, sids, scheme: str, verify: bool) -> list[tuple[int, RepairPlan]]:
        """One round: a fresh spare map, then each broken stripe to completion."""
        self._replacements = None
        rnd = self._prepare(sids, scheme)
        committed = []
        try:
            for sid, ctx, center in rnd.work if rnd is not None else ():
                plan = self._repair_stripe(sid, scheme, verify, (ctx, center), rnd.p_of(sid))
                if plan is not None:
                    committed.append((sid, plan))
        finally:
            self.coord.clear_scratch()
        return committed

    def _rounds(self, scheme: str, verify: bool, wanted=None):
        """Rounds until no stripe (of ``wanted``) is missing blocks.

        With ``wanted=None`` (a whole-system repair) an idle system also
        waits out silent kills and scheduled future faults before it
        declares victory.  Returns the committed ``(stripe id, plan)``
        pairs and the number of rounds taken.
        """
        coord, injector = self.coord, self.injector
        committed: list[tuple[int, RepairPlan]] = []
        for rounds in range(1, _MAX_ROUNDS + 1):
            self._sync_fired()
            broken = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
            todo = sorted(broken if wanted is None else wanted & set(broken))
            if todo:
                with coord.span(
                    f"round:{rounds}", "round",
                    round=rounds, stripes=todo, t_sim=injector.now,
                ):
                    committed += self._round(todo, scheme, verify)
            elif wanted is not None:
                return committed, rounds
            elif any(
                not coord.agents[i].alive and coord.cluster[i].alive
                for i in coord.agents
            ):
                # silently-killed nodes: let the monitor confirm them
                self._heartbeat_detect()
            elif (nxt := injector.next_event_time()) is not None:
                # future scheduled faults: advance to them and re-check
                injector.advance(max(0.0, nxt - injector.now))
                self._sync_fired()
                self._beat_responsive()
            else:
                return committed, rounds
        raise RuntimeError(  # pragma: no cover - schedules are finite
            "fault-aware repair did not converge"
        )

    def repair_stripes(
        self, sids, scheme: str = "hmbr", verify: bool = True
    ) -> list[tuple[int, RepairPlan]]:
        """Repair only the given stripes to completion under the injector.

        The job-scoped entry point used by :mod:`repro.sched`: one scheduler
        job's stripes run through exactly the per-stripe journal / backoff /
        re-plan machinery of :meth:`repair`, but other affected stripes are
        left alone (they belong to other jobs).  Returns the committed
        ``(stripe id, plan)`` pairs (a stripe re-broken by a later fault
        appears once per committed plan).  The caller owns injector
        attachment and the final timing-plane simulation.
        """
        return self._rounds(scheme, verify, wanted=set(sids))[0]

    def repair(self, request, events=()):
        """Repair every affected stripe to completion under the injector.

        ``request`` (a :class:`~repro.system.request.RepairRequest`) names
        the scheme and whether to verify, and tags the returned
        :class:`~repro.system.request.RepairResult`, whose ``report`` is
        this run's :class:`FaultRepairReport`.  ``events``
        (:class:`~repro.simnet.dynamic.BandwidthEvent`\\ s, usually from a
        :class:`~repro.simnet.network.NetworkTrace`) perturb the final
        timing-plane simulation; the journaled data plane and the repaired
        bytes are unaffected.
        """
        coord = self.coord
        injector = self.injector
        before = coord.meter()
        injector.attach(coord.bus)
        with coord.span("repair-with-faults", "repair", scheme=request.scheme):
            try:
                injector.advance(0.0)
                self._sync_fired()
                self._beat_responsive()
                final_plans, rounds = self._rounds(request.scheme, request.verify)
            finally:
                injector.detach(coord.bus)

        # ---- timing plane: simulate the committed plans together (renamed:
        # a stripe re-broken by a later fault commits more than one plan)
        makespan, per_stripe, sim = coord.time_plans(
            [(sid, rename_plan(plan, f"rnd{i}:")) for i, (sid, plan) in enumerate(final_plans)],
            events,
        )
        report = FaultRepairReport(
            dead_nodes=coord.cluster.dead_ids(),
            rounds=rounds,
            attempts=dict(self.attempts),
            replans=self.replans,
            retries=self.retries,
            drops=injector.drops_consumed,
            delay_s=injector.delay_accrued_s,
            backoff_s=self.backoff_s,
            detections=list(self._detections),
            events_fired=list(self._events),
            executed_transfer_bytes=self.committed_bytes + self.wasted_bytes,
            wasted_transfer_bytes=self.wasted_bytes,
            sim_bytes_mb=sum(sim.bytes_sent.values()) if sim is not None else 0.0,
        )
        if self._obs is not None:
            m = self._obs.metrics
            m.gauge("faults.rounds").set(report.rounds)
            m.gauge("faults.drops").set(report.drops)
            m.gauge("faults.delay_s").set(report.delay_s)
            m.gauge("faults.backoff_s").set(report.backoff_s)
            if report.wasted_transfer_bytes:
                m.counter("faults.wasted_transfer_bytes").inc(report.wasted_transfer_bytes)
        return coord.round_result(
            request, before, final_plans, makespan, per_stripe,
            dict(self._replacements_all), report=report,
        )
