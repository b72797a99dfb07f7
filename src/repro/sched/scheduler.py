"""Concurrent multi-job repair scheduling over one shared fluid simulation.

:class:`RepairScheduler` queues :class:`~repro.sched.job.RepairJob`\\ s and
runs them in admission *waves*: every job admitted into a wave has its
repair plans merged into one task DAG and simulated together, so jobs
contend for shared links under the fluid simulator's weighted max-min
allocator.  Per-job task ids are namespaced (``job0:p0:...``); each plan's
finish is the latest finish among the ids :meth:`RepairScheduler._sim_tasks`
gave it, and a job's finish is the latest of its plans' — no scan of the
merged run.

Key invariants:

* **Sequential equivalence** — a job plans through the same
  :meth:`Coordinator.plan_round
  <repro.system.coordinator.Coordinator.plan_round>` and dispatches through
  the same :meth:`~repro.system.coordinator.Coordinator.dispatch_round` as
  a plain :meth:`~repro.system.coordinator.Coordinator.repair` round, so
  repaired bytes are bit-identical and the makespan matches to float
  precision (task renaming does not perturb the fluid solve).  A round
  :meth:`RepairScheduler.estimate_finish_s` already planned is handed to
  the real wave only when every input it was planned from compares equal,
  so it is the round the real call would have built.
* **Weighted sharing** — a job's priority class maps to a flow weight
  (:data:`~repro.sched.job._PRIORITY_WEIGHTS`); concurrent jobs split
  shared links in proportion to those weights, and jobs with disjoint
  footprints finish as if running alone.
* **Fault tolerance** — with a fault injector, each admitted job runs
  through :meth:`FaultRuntime.repair_stripes
  <repro.faults.runtime.FaultRuntime.repair_stripes>`, reusing the
  journal / backoff / re-plan machinery; a job whose helpers die is
  re-planned within its wave, and unrecoverable jobs fail without
  aborting their peers.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.errors import RepairAborted, StripeUnrecoverable
from repro.repair.plan import RepairPlan, rename_plan, reweighted
from repro.repair.planner import RoundPlan, assign_spares, dead_hosts
from repro.sched.admission import AdmissionController, AdmissionPolicy
from repro.sched.job import (
    ADMITTED,
    DONE,
    FAILED,
    RUNNING,
    RepairJob,
    weight_for,
)
from repro.simnet.fluid import FluidSimulator
from repro.simnet.flows import DelayTask
from repro.simnet.network import as_network

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from repro.system.coordinator import Coordinator

#: waves are bounded: every wave admits at least one job or completes the
#: queue, so this is a pure safety net against admission-logic bugs.
_MAX_WAVES = 10_000


@dataclass
class SchedulerReport:
    """Outcome of one :meth:`RepairScheduler.run_pending` call."""

    #: every job the call processed, in submission order.
    jobs: list[RepairJob]
    #: number of admission waves (merged simulations) that ran.
    waves: int
    #: total simulated time across all waves.
    makespan_s: float
    #: task id -> simulated finish time for every foreground task merged
    #: into the first wave (see ``run_pending(foreground=...)``).
    foreground_finish_s: dict[str, float] = field(default_factory=dict)

    @property
    def done(self) -> list[RepairJob]:
        """Jobs that completed successfully."""
        return [j for j in self.jobs if j.state == DONE]

    @property
    def failed(self) -> list[RepairJob]:
        """Jobs that failed (unrecoverable stripes, retry exhaustion)."""
        return [j for j in self.jobs if j.state == FAILED]


@dataclass(frozen=True)
class RepairEta:
    """Planning-only estimate of queued repairs' landings.

    Produced by :meth:`RepairScheduler.estimate_finish_s`; consumed by the
    serving plane's partially-repaired-stripe fast path (see
    ``docs/PIPELINING_READS.md``).
    """

    #: stripe id -> estimated simulated landing instant of its repair.
    finish_s: dict
    #: dead node -> the spare its lost blocks are planned to rebuild onto.
    replacement_of: dict
    #: the rounds the estimate planned, for ``run_pending(eta=)`` to take
    #: back; emptied when that call returns.
    rounds: list = field(default_factory=list, init=False, compare=False, repr=False)


@dataclass
class _HandedRound:
    """One round :meth:`RepairScheduler.estimate_finish_s` planned, kept with
    every input :func:`~repro.repair.planner.plan_round` read to build it."""

    rnd: RoundPlan
    #: :meth:`RepairScheduler._round_inputs` just before the round's picks.
    inputs: tuple
    #: the center scheduler's snapshot just after them.
    centers_after: tuple


class RepairScheduler:
    """Admission-controlled concurrent repair-job scheduler.

    Obtain one via :attr:`Coordinator.sched
    <repro.system.coordinator.Coordinator.sched>`.  ``Coordinator.repair``
    with a request list lands in :meth:`run_requests`; :meth:`submit` and
    :meth:`run_pending` are the job-level API underneath it.
    """

    def __init__(
        self, coord: "Coordinator", policy: AdmissionPolicy | None = None
    ) -> None:
        # weak: a coordinator holds its scheduler, and refcounting alone
        # must free the pair (the caller keeps the coordinator alive)
        self._coord = weakref.ref(coord)
        self.admission = AdmissionController(coord.cluster, policy)
        self._seq = 0
        self._queue: list[RepairJob] = []
        #: every job ever submitted, for inspection.
        self.jobs: list[RepairJob] = []

    coord = property(lambda self: self._coord(), doc="The coordinator it repairs.")

    # -------------------------------------------------------------- #
    # submission
    # -------------------------------------------------------------- #
    @property
    def queue_depth(self) -> int:
        """Jobs submitted but not yet run."""
        return len(self._queue)

    def submit(
        self,
        scheme: str = "hmbr",
        *,
        stripes=None,
        priority: str = "normal",
        weight: float | None = None,
        arrival_s: float = 0.0,
    ) -> RepairJob:
        """Queue a repair job; nothing executes until :meth:`run_pending`.

        ``stripes`` limits the job to those stripe ids (``None`` = every
        stripe affected at admission time).  ``priority`` picks the flow
        weight unless ``weight`` overrides it.  ``arrival_s`` delays the
        job's flows within its wave's simulation, modelling staggered
        submission.
        """
        job = RepairJob(
            job_id=f"job{self._seq}",
            scheme=scheme,
            priority=priority,
            weight=weight_for(priority, weight),
            stripes=None if stripes is None else tuple(stripes),
            arrival_s=arrival_s,
            seq=self._seq,
        )
        self._seq += 1
        self._queue.append(job)
        self.jobs.append(job)
        obs = self.coord.obs
        if obs is not None:
            obs.metrics.counter("sched.jobs_submitted").inc()
            obs.metrics.gauge("sched.queue_depth").set(len(self._queue))
        return job

    # -------------------------------------------------------------- #
    # execution
    # -------------------------------------------------------------- #
    def run_requests(self, requests, *, network=None, foreground=(), eta=None):
        """Queue one job per :class:`~repro.system.request.RepairRequest`, run all.

        Per-job fields (scheme, stripes, priority, weight, arrival) come
        from each request; run-global ones must be expressible once per
        run — at most one request may carry faults (its retry/backoff knobs
        configure the shared fault runtime) and every request must agree on
        ``verify`` (``ValueError`` otherwise).  ``eta`` is passed on to
        :meth:`run_pending`.  Returns :meth:`run_pending`'s report.
        """
        from repro.faults.runtime import FaultRuntime

        reqs = list(requests)
        faulted = [r for r in reqs if r.faults is not None]
        if len(faulted) > 1:
            raise ValueError("at most one request per run may carry faults")
        if len({r.verify for r in reqs}) > 1:
            raise ValueError("requests in one scheduled run must agree on verify")
        for r in reqs:
            self.submit(
                scheme=r.scheme, stripes=r.stripes, priority=r.priority,
                weight=r.weight, arrival_s=r.arrival_s,
            )
        return self.run_pending(
            verify=all(r.verify for r in reqs),
            faults=FaultRuntime.from_request(self.coord, faulted[0]) if faulted else None,
            network=network,
            foreground=foreground,
            eta=eta,
        )

    def run_pending(
        self,
        *,
        verify: bool = True,
        faults=None,
        network=None,
        foreground=(),
        eta: RepairEta | None = None,
    ) -> SchedulerReport:
        """Admit and run every queued job; returns a :class:`SchedulerReport`.

        Jobs are admitted in priority order (FIFO within a class) until the
        :class:`~repro.sched.admission.AdmissionPolicy` caps fill; the
        remainder wait for the next wave.  Each wave plans and dispatches
        its jobs through the coordinator's shared repair helpers, then runs
        one merged :class:`~repro.simnet.fluid.FluidSimulator` pass in which
        the jobs' flows contend at their priority weights.  Wave ``i + 1``
        starts at the simulated instant wave ``i`` finished, so
        every job's ``finish_s`` lives on one global clock.

        ``faults`` (a :class:`~repro.faults.schedule.FaultSchedule`, a
        prepared :class:`~repro.faults.injector.FaultInjector`, or a
        configured :class:`~repro.faults.runtime.FaultRuntime`) routes each
        job's data plane through the fault runtime's journal/backoff/replan
        machinery.  ``network`` (anything :func:`~repro.simnet.network.
        as_network` accepts) supplies bandwidth events on the
        scheduler-global clock.

        ``foreground`` is a sequence of extra simulator tasks (client
        traffic — see :mod:`repro.workload`) merged into the **first**
        wave's simulation, so foreground flows and that wave's repair flows
        contend for the same links under their respective weights.  Their
        finish times land in the report's
        :attr:`~SchedulerReport.foreground_finish_s`; with an empty queue a
        foreground-only wave still runs, so the serving plane's healthy
        regime goes through the exact simulator path the storm regime uses.

        ``eta`` is what :meth:`estimate_finish_s` returned for these jobs:
        a job on the healthy route dispatches the round the estimate
        planned instead of planning it again, when every input that round
        was planned from compares equal at that moment (see
        :meth:`_round_inputs`); otherwise it plans afresh.  Either way the
        estimate's rounds are dropped when this call returns.
        """
        if eta is not None and not isinstance(eta, RepairEta):
            raise TypeError(
                f"eta must be what estimate_finish_s returned, got {type(eta).__name__}"
            )
        coord = self.coord
        events = as_network(network).events_for(coord.cluster)
        obs = coord.obs
        run = list(self._queue)
        self._queue.clear()

        runtime = self._fault_runtime(faults)
        injector = runtime.injector if runtime is not None else None
        with coord.span(
            "sched.run_pending", "sched", actor="scheduler",
            jobs=[j.job_id for j in run], faults=injector is not None,
        ):
            if injector is not None:
                injector.attach(coord.bus)
            try:
                report = self._run_waves(
                    run, verify, runtime, events, foreground,
                    eta.rounds if eta is not None else [],
                )
            finally:
                if eta is not None:
                    eta.rounds.clear()
                if injector is not None:
                    injector.detach(coord.bus)
        if obs is not None:
            m = obs.metrics
            m.gauge("sched.queue_depth").set(len(self._queue))
            m.counter("sched.waves").inc(report.waves)
            m.counter("sched.jobs_done").inc(len(report.done))
            m.counter("sched.jobs_failed").inc(len(report.failed))
            for job in report.jobs:
                if job.makespan_s is not None:
                    m.histogram("sched.job_makespan_s").observe(job.makespan_s)
                m.histogram("sched.job_wait_waves").observe(job.queue_wait_waves)
        return report

    def estimate_finish_s(self, requests) -> RepairEta:
        """Estimate when each stripe's queued repair lands — planning only.

        Runs one admission wave over ``requests`` (a sequence of
        :class:`~repro.system.request.RepairRequest`) *dry*: the same
        :meth:`_admit_wave` ordering, stripe ownership and spare sharing,
        the same :meth:`Coordinator.plan_round
        <repro.system.coordinator.Coordinator.plan_round>` and the same
        :meth:`_sim_tasks` a real run uses, followed by a repair-only fluid
        simulation of the planned flows at their priority weights.  Nothing
        is mutated — no job is queued, no byte moves, and the stateful
        LFS/LRS center scheduler is snapshotted and restored, so a
        subsequent real run makes identical picks.  The planned rounds ride
        on the returned :class:`RepairEta`, with every input each was
        planned from, so ``run_pending(eta=)`` can dispatch them unplanned.

        The estimate is deliberately **optimistic**: it ignores admission
        caps (everything lands in wave one), fault schedules, and
        contention from foreground traffic, so real landings can only be
        later.  The serving plane uses it as the fast-path cutover clock,
        which is safe because payload bytes never depend on it.  Requests
        with no free spare to repair onto are skipped: their stripes simply
        get no estimate.
        """
        coord = self.coord
        jobs = [
            RepairJob(
                job_id=f"est{j}", scheme=r.scheme, priority=r.priority,
                weight=weight_for(r.priority, r.weight), stripes=r.stripes,
                arrival_s=r.arrival_s, seq=j,
            )
            for j, r in enumerate(requests)
        ]
        saved = coord.center_scheduler.snapshot()
        try:
            admitted, _ = self._admit_wave(
                sorted(jobs, key=RepairJob.priority_rank), dry=True
            )
            tasks: list = []
            owned: list[tuple[int, list[str]]] = []
            rounds: list[_HandedRound] = []
            for job, affected, replacement_of in admitted:
                inputs = self._round_inputs(job.scheme, affected, replacement_of)
                rnd = coord.plan_round(
                    job.scheme, affected, replacement_of=replacement_of
                )
                rounds.append(
                    _HandedRound(rnd, inputs, coord.center_scheduler.snapshot())
                )
                tasks += self._sim_tasks(job, rnd.plans, owned)
        finally:
            coord.center_scheduler.restore(saved)
        finish: dict[int, float] = {}
        if tasks:
            done = FluidSimulator(coord.cluster).run(tasks).finish_times
            for sid, ids in owned:
                finish[sid] = max(finish.get(sid, 0.0), max(map(done.__getitem__, ids)))
        eta = RepairEta(
            finish_s=finish,
            replacement_of={d: s for _, _, repl in admitted for d, s in repl.items()},
        )
        eta.rounds.extend(rounds)
        return eta

    def _round_inputs(self, scheme, affected, replacement_of) -> tuple:
        """Everything :func:`~repro.repair.planner.plan_round` reads to plan
        ``affected``, as one value a later call compares with ``==``.

        The scheme, the stripes and their spares, the LFS/LRS center
        scheduler's state, the affected stripes' placements, and the
        cluster's whole link view — every node's alive flag, rack, up/down
        and cross-rack caps, plus the rack trunks.  That is a superset of
        what the planners and the split search's simulator read, at a cost
        of microseconds.  The cluster itself enters by identity, so a round
        never crosses systems.
        """
        coord = self.coord
        cluster = coord.cluster
        return (
            cluster,
            coord.block_size_mb,
            scheme,
            {sid: list(blocks) for sid, blocks in affected.items()},
            dict(replacement_of),
            coord.center_scheduler.snapshot(),
            {sid: tuple(coord.layout[sid].placement) for sid in affected},
            [
                (n.node_id, n.alive, n.rack, n.uplink, n.downlink,
                 n.cross_uplink, n.cross_downlink)
                for n in cluster.nodes.values()
            ],
            dict(cluster.rack_trunks),
        )

    def _take_round(self, handed, scheme, affected, replacement_of) -> RoundPlan | None:
        """The handed round planned from exactly these inputs, or ``None``.

        A round is taken at most once; taking it advances the center
        scheduler to where the round's own picks left it.
        """
        if not handed:
            return None
        inputs = self._round_inputs(scheme, affected, replacement_of)
        for i, h in enumerate(handed):
            if h.inputs == inputs:
                del handed[i]
                self.coord.center_scheduler.restore(h.centers_after)
                return h.rnd
        return None

    def _fault_runtime(self, faults):
        """The :class:`FaultRuntime` behind ``run_pending(faults=...)``."""
        from repro.faults.runtime import FaultRuntime
        from repro.system.request import RepairRequest

        if faults is None or isinstance(faults, FaultRuntime):
            return faults
        return FaultRuntime.from_request(self.coord, RepairRequest(faults=faults))

    def _run_waves(
        self, run, verify, runtime, events, foreground, handed
    ) -> SchedulerReport:
        coord = self.coord
        obs = coord.obs
        pending = sorted(run, key=RepairJob.priority_rank)
        offset = 0.0
        waves = 0
        fg_tasks = list(foreground)
        fg_finish: dict[str, float] = {}
        while pending or fg_tasks:
            waves += 1
            if waves > _MAX_WAVES:  # pragma: no cover - safety net
                raise RuntimeError("scheduler did not drain its queue")
            with coord.span(
                f"sched.wave:{waves}", "sched", actor="scheduler",
                wave=waves, pending=[j.job_id for j in pending],
            ):
                admitted, pending = self._admit_wave(pending, waves, offset)
                if obs is not None:
                    obs.metrics.gauge("sched.wave_admitted").set(len(admitted))
                    obs.metrics.counter("sched.jobs_admitted").inc(len(admitted))
                extra, fg_tasks = fg_tasks, []
                sim = self._run_wave(
                    admitted, verify, runtime, events, offset, extra, handed
                )
                self._finish_wave(admitted, offset)
                if sim is not None:
                    for t in extra:
                        fg_finish[t.task_id] = offset + sim.finish_times[t.task_id]
                    offset += sim.makespan
        return SchedulerReport(
            jobs=list(run),
            waves=waves,
            makespan_s=offset,
            foreground_finish_s=fg_finish,
        )

    # -------------------------------------------------------------- #
    # one wave: admit -> plan/dispatch -> merged simulation
    # -------------------------------------------------------------- #
    def _admit_wave(self, pending, wave=None, offset=0.0, dry: bool = False):
        """Admit as many pending jobs as the policy allows.

        Returns ``(admitted, still_pending)`` where each admitted entry is
        ``(job, affected, replacement_of)``.  Spare reservations are shared
        across the wave: two jobs repairing stripes hit by the same dead
        node use the same replacement, mirroring :meth:`Coordinator.repair`.
        ``dry`` (the planning-only estimate) touches no job or admission
        state, ignores the policy caps, and drops jobs with nothing to
        repair or no spare to repair onto instead of admitting / raising.
        """
        coord = self.coord
        if not dry:
            self.admission.reset_wave()
        affected_all = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
        free = coord.free_spares()

        wave_replacements: dict[int, int] = {}
        claimed: set[int] = set()
        admitted: list[tuple[RepairJob, dict[int, list[int]], dict[int, int]]] = []
        deferred: list[RepairJob] = []
        for job in pending:
            # Stripes a previously admitted wave-mate already claimed are
            # excluded: first-come ownership, no double repair.
            affected = {
                sid: blocks
                for sid, blocks in affected_all.items()
                if (job.stripes is None or sid in job.stripes) and sid not in claimed
            }
            replacement_of: dict[int, int] = {}
            if affected:
                try:
                    replacement_of = assign_spares(
                        coord.cluster, dead_hosts(coord.layout, affected), free,
                        shared=wave_replacements,
                    )
                except RuntimeError as err:
                    if dry:
                        continue
                    raise RuntimeError(f"job {job.job_id}: {err}") from None
                footprint = self._footprint(affected, replacement_of, coord.layout)
                if not dry and not self.admission.try_admit(job, footprint):
                    job.queue_wait_waves += 1
                    deferred.append(job)
                    continue
                wave_replacements.update(replacement_of)
                claimed.update(affected)
            if not dry:
                job.transition(ADMITTED)
                job.wave = wave
                job.admitted_s = offset
            if affected or not dry:
                # (really admitted, a job with nothing left to repair
                # completes trivially; a dry run has no use for it)
                admitted.append((job, affected, replacement_of))
        return admitted, deferred

    @staticmethod
    def _footprint(affected, replacement_of, layout) -> set[int]:
        """Every node a job's repair will touch: survivors + replacements."""
        nodes: set[int] = set(replacement_of.values())
        for sid, failed in affected.items():
            failed_set = set(failed)
            nodes.update(
                n for b, n in enumerate(layout[sid].placement) if b not in failed_set
            )
        return nodes

    def _run_wave(
        self,
        admitted,
        verify,
        runtime,
        events,
        offset,
        extra_tasks,
        handed,
    ):
        """Plan + dispatch every admitted job, then simulate them merged.

        ``extra_tasks`` (foreground client traffic) join the wave's merged
        task DAG verbatim — they were never planned as repair work, so they
        only contribute flows/delays to the shared fluid solve.  Each plan's
        finish, on the global clock, lands in its job's
        :attr:`~repro.sched.job.RepairJob.per_stripe_transfer_s`.
        """
        coord = self.coord
        obs = coord.obs
        all_tasks = list(extra_tasks)
        planned: list[tuple[RepairJob, list[tuple[int, list[str]]]]] = []
        for job, affected, replacement_of in admitted:
            job.transition(RUNNING)
            if not affected:
                continue
            try:
                plans = self._dispatch_job(
                    job, affected, replacement_of, verify, runtime, handed
                )
            except (RepairAborted, StripeUnrecoverable) as err:
                # the job isolation boundary: a doomed job fails alone
                job.transition(FAILED)
                job.error = f"{type(err).__name__}: {err}"
                if obs is not None:
                    obs.tracer.instant(
                        f"sched.job_failed:{job.job_id}", actor="scheduler",
                        cat="sched", job=job.job_id, error=job.error,
                    )
                continue
            job.stripes_repaired = sorted({sid for sid, _ in plans})
            job.blocks_recovered = sum(len(b) for b in affected.values())
            job.bytes_on_wire_mb_model = sum(
                p.total_transfer_mb() for _, p in plans
            )
            for sid, _ in plans:
                job.attempts[sid] = job.attempts.get(sid, 0) + 1
            planned.append((job, []))
            all_tasks.extend(self._sim_tasks(job, plans, planned[-1][1]))
        if not all_tasks:
            return None
        shifted = [
            dataclasses.replace(e, time=max(e.time - offset, 0.0)) for e in events
        ]
        sim = FluidSimulator(coord.cluster).run(
            all_tasks,
            events=shifted,
            tracer=obs.tracer if obs is not None else None,
            trace_label=f"sched.sim@{offset:g}",
        )
        done = sim.finish_times
        for job, owned in planned:
            for sid, ids in owned:
                t = offset + max(map(done.__getitem__, ids))
                prev = job.per_stripe_transfer_s.get(sid)
                job.per_stripe_transfer_s[sid] = t if prev is None else max(prev, t)
        return sim

    def _dispatch_job(
        self, job, affected, replacement_of, verify, runtime, handed
    ) -> list[tuple[int, RepairPlan]]:
        """Plan + data plane for one job; returns its committed (sid, plan) pairs.

        A fault runtime journals per stripe; otherwise the job is one
        planned round — a ``handed`` one from the estimate when its inputs
        match (:meth:`_take_round`) — through the coordinator's healthy
        data plane (:meth:`Coordinator.dispatch_round
        <repro.system.coordinator.Coordinator.dispatch_round>`).
        """
        coord = self.coord
        with coord.span(
            f"sched.job:{job.job_id}", "sched", actor="scheduler",
            job=job.job_id, scheme=job.scheme, priority=job.priority,
            stripes=sorted(affected),
        ):
            if runtime is not None:
                return runtime.repair_stripes(
                    sorted(affected), scheme=job.scheme, verify=verify
                )
            rnd = self._take_round(handed, job.scheme, affected, replacement_of)
            if rnd is None:
                rnd = coord.plan_round(
                    job.scheme, affected, replacement_of=replacement_of
                )
            coord.dispatch_round(rnd, verify)
            return rnd.plans

    def _sim_tasks(self, job, plans, owned):
        """Rename + reweight a job's plan tasks for the merged simulation.

        Task ids become ``<job_id>:p<i>:<original>``; each plan's ids are
        appended to ``owned`` as ``(stripe id, ids)``, their latest finish
        being the plan's (no scan of the merged run).  A positive
        ``arrival_s`` inserts a :class:`~repro.simnet.flows.DelayTask` that
        gates the job's root tasks.
        """
        tasks = []
        arrival_id = None
        if job.arrival_s > 0:
            arrival_id = f"{job.job_id}:arrival"
            tasks.append(DelayTask(arrival_id, job.arrival_s, tag="sched"))
        for i, (sid, plan) in enumerate(plans):
            p = reweighted(plan, job.weight) if job.weight != 1.0 else plan
            p = rename_plan(p, f"{job.job_id}:p{i}:")
            owned.append((sid, p.task_ids()))
            for t in p.tasks:
                if arrival_id is not None and not t.deps:
                    t = dataclasses.replace(t, deps=(arrival_id,))
                tasks.append(t)
        return tasks

    def _finish_wave(self, admitted, offset) -> None:
        """Record per-job finish times: the latest of each job's plan
        finishes, which :meth:`_run_wave` put on the global clock."""
        coord = self.coord
        obs = coord.obs
        for job, _, _ in admitted:
            if job.state != RUNNING:
                if job.state == ADMITTED:  # trivially-empty job
                    job.transition(RUNNING)
                    job.transition(DONE)
                    job.finish_s = offset
                continue
            job.finish_s = max(job.per_stripe_transfer_s.values(), default=offset)
            job.transition(DONE)
            if obs is not None:
                obs.tracer.add(
                    f"sched.job:{job.job_id}", actor="scheduler", cat="sched.sim",
                    t0=job.admitted_s or 0.0, t1=job.finish_s,
                    job=job.job_id, wave=job.wave, priority=job.priority,
                    stripes=job.stripes_repaired,
                )
