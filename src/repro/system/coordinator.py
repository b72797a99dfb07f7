"""The coordinator: metadata server + repair orchestration (Figure 7).

Responsibilities, mirroring the paper's prototype:

* erasure-coding metadata — stripe/block placement, coding policy, the
  mapping from files to stripes;
* failure detection via heartbeats (HDFS3 NameNode behaviour);
* repair-solution generation — on a block-lost report it builds a
  :class:`~repro.repair.context.RepairContext`, asks the configured planner
  for a :class:`~repro.repair.plan.RepairPlan`, and dispatches the plan's ops
  to the agents, which execute them cooperatively;
* timing — the same plan's flow tasks run through the fluid simulator, so
  every repair returns both the *simulated transfer time* (at the modeled
  block size) and the *measured compute time* (at the stored block size).

Data plane and timing plane are deliberately scale-decoupled: agents store
small real buffers (``block_bytes``) while transfer times are simulated at
the modeled ``block_size_mb`` (64 MB default), exactly like running the
prototype with a scaled-down payload.

An attached :class:`repro.obs.Observability` session (``obs.attach(coord)``)
records every repair as a span tree (repair → plan → per-stripe dispatch →
per-transfer/-combine hook spans, plus the simulated timeline) and feeds the
``repair.*`` / ``bus.*`` / ``gf.*`` metric series; with no session attached
every instrumentation point is a no-op and behavior is byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro._bytes import join_bytes
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe, StripeLayout, block_name
from repro.gf import matmul
from repro.repair.batch import PlanCache
from repro.repair.multinode import CenterScheduler
from repro.repair.planner import RoundPlan, check_scheme, plan_round
from repro.sched.job import DONE, RepairJob
from repro.simnet.fluid import FluidSimulator
from repro.simnet.network import as_network
from repro.system.agent import Agent, run_plan_ops
from repro.system.bus import DataBus
from repro.system.heartbeat import HeartbeatMonitor
from repro.system.request import RepairRequest, RepairResult, RepairTiming


def _c_bytes(data) -> np.ndarray:
    """``data``'s C-order bytes, flat: a ``bytes`` by reference, else a copy."""
    if isinstance(data, bytes):
        return np.frombuffer(data, dtype=np.uint8)
    return np.array(data, order="C").reshape(-1).view(np.uint8)


def _finishes(plans, sim) -> dict[int, float]:
    """Each stripe's last task finish in ``sim`` (of its last plan, under faults)."""
    per_stripe: dict[int, float] = {}
    for sid, plan in plans:
        t = max(sim.finish_times[t.task_id] for t in plan.tasks)
        per_stripe[sid] = max(per_stripe.get(sid, 0.0), t)
    return per_stripe


@dataclass
class WriteReceipt:
    """Result of a client write."""

    name: str
    nbytes: int
    stripe_ids: list[int]
    padded_bytes: int


class Coordinator:
    """Centralized coordinator over a cluster of agents."""

    def __init__(
        self,
        cluster: Cluster,
        code: RSCode,
        block_bytes: int = 1 << 16,
        block_size_mb: float = 64.0,
        heartbeat_timeout: float = 30.0,
        rng: np.random.Generator | int = 0,
    ):
        if block_bytes % 8:
            raise ValueError("block_bytes must be word-aligned (multiple of 8)")
        self.cluster = cluster
        self.code = code
        self.block_bytes = block_bytes
        self.block_size_mb = block_size_mb
        self.rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
        #: the stripe table: ``layout[sid]`` -> :class:`~repro.ec.stripe.Stripe`.
        self.layout = StripeLayout()
        self.files: dict[str, tuple[list[int], int]] = {}  # name -> (stripe ids, length)
        self.agents: dict[int, Agent] = {
            i: Agent(i, code.field) for i in cluster.node_ids()
        }
        self.monitor = HeartbeatMonitor(timeout=heartbeat_timeout)
        for i in cluster.node_ids():
            self.monitor.register(i)
        self.bus = DataBus(rack_of={i: cluster[i].rack for i in cluster.node_ids()})
        self.spares: list[int] = []
        #: spares consumed by *committed* metadata-only repairs
        #: (:meth:`plan_repair` with ``commit=True``).  A byte-level repair
        #: occupies its spare implicitly (the store is no longer empty); a
        #: metadata-only repair stores nothing, so the reservation is
        #: explicit.  Always empty on pure byte-plane systems.
        self.reserved_spares: set[int] = set()
        self.center_scheduler = CenterScheduler()
        #: decode-plan LRU shared by this system's stacked decodes (degraded
        #: reads), so recurring erasure patterns skip re-inversion.
        self.plan_cache = PlanCache()
        #: optional :class:`repro.obs.Observability` session (see its
        #: ``attach``); ``None`` means every instrumentation point is a no-op.
        self.obs = None
        self._sched = None

    @contextmanager
    def span(self, name: str, cat: str, actor: str = "coordinator", **args):
        """An ops-domain span on the attached obs session (``None`` without one)."""
        if self.obs is None:
            yield None
            return
        span = self.obs.tracer.begin(name, actor=actor, cat=cat, **args)
        try:
            yield span
        finally:
            self.obs.tracer.unwind(span)

    # -------------------------------------------------------------- #
    # membership
    # -------------------------------------------------------------- #
    def add_spare(self, node: Node) -> None:
        """Register an empty node usable as a repair target."""
        self.cluster.add_node(node)
        self.agents[node.node_id] = Agent(node.node_id, self.code.field)
        self.monitor.register(node.node_id)
        self.bus.rack_of[node.node_id] = node.rack
        self.spares.append(node.node_id)
        if self.obs is not None:
            self.agents[node.node_id].obs_hook = self.obs.on_compute

    def data_nodes(self) -> list[int]:
        return [i for i in self.cluster.alive_ids() if i not in self.spares]

    def free_spares(self) -> list[int]:
        """Alive, empty, un-reserved spares: the usable repair targets."""
        return [
            s
            for s in self.spares
            if self.cluster[s].alive
            and self.agents[s].alive
            and len(self.agents[s].store) == 0
            and s not in self.reserved_spares
        ]

    # -------------------------------------------------------------- #
    # client path
    # -------------------------------------------------------------- #
    def _new_stripe(self, candidates: list[int], blocks: np.ndarray | None) -> int:
        """Place one stripe on random ``candidates``; encode + store ``blocks``."""
        if len(candidates) < self.code.n:
            raise ValueError(
                f"{len(candidates)} data nodes cannot host width-{self.code.n} stripes"
            )
        sid = self.layout.next_id()
        idx = self.rng.choice(len(candidates), size=self.code.n, replace=False)
        placement = [candidates[i] for i in idx]
        self.layout.add(Stripe(sid, self.code.k, self.code.m, placement))
        if blocks is not None:
            for b, block in enumerate([*blocks, *self.code.encode(blocks)]):
                self.agents[placement[b]].store_block(block_name(sid, b), block)
        return sid

    def write(self, name: str, data: bytes | np.ndarray) -> WriteReceipt:
        """Erasure-code ``data`` into stripes and distribute the blocks: its
        C-order bytes *viewed* as field elements (``block_bytes * itemsize``
        bytes a block), a ``bytes`` payload by reference, any other buffer
        copied once, and only a short tail zero-padded into its own array."""
        if name in self.files:
            raise KeyError(f"file {name!r} already exists")
        buf = _c_bytes(data)
        k, dtype = self.code.k, self.code.field.dtype
        stripe_payload = k * self.block_bytes * np.dtype(dtype).itemsize
        padded = int(np.ceil(max(buf.size, 1) / stripe_payload)) * stripe_payload
        candidates = self.data_nodes()
        stripe_ids = []
        for off in range(0, padded, stripe_payload):
            chunk = buf[off : off + stripe_payload]
            if chunk.size < stripe_payload:
                chunk = np.concatenate((chunk, np.zeros(stripe_payload - chunk.size, np.uint8)))
            stripe_ids.append(
                self._new_stripe(candidates, chunk.view(dtype).reshape(k, self.block_bytes))
            )
        self.files[name] = (stripe_ids, buf.size)
        return WriteReceipt(name, buf.size, stripe_ids, padded)

    def place_stripes(
        self,
        n_stripes: int,
        *,
        materialize: bool = False,
        payload_seed: int = 2023,
    ) -> list[int]:
        """Provision ``n_stripes`` anonymous stripes (metadata, maybe bytes).

        The metadata fast path's provisioning primitive: placement draws
        come from :attr:`rng` **identically** whether or not bytes
        materialize, so a metadata-only system and a byte-materializing
        twin built with the same seed hold byte-for-byte identical layouts
        — the substrate the reliability differential suite compares across.
        With ``materialize=True`` each stripe's payload comes from a
        separate ``payload_seed`` stream (so payload generation cannot
        perturb placement), is viewed, erasure-coded and stored exactly as
        :meth:`write` would store it.  Returns the new stripe ids; the
        stripes belong to no file.
        """
        if n_stripes < 0:
            raise ValueError(f"n_stripes must be >= 0, got {n_stripes}")
        candidates = self.data_nodes()
        payload_rng = np.random.default_rng(payload_seed) if materialize else None
        dtype = np.dtype(self.code.field.dtype)
        shape = (self.code.k, self.block_bytes * dtype.itemsize)
        return [
            self._new_stripe(
                candidates,
                payload_rng.integers(0, 256, size=shape, dtype=np.uint8).view(dtype)
                if materialize
                else None,
            )
            for _ in range(n_stripes)
        ]

    def read(self, name: str) -> bytes:
        """Read a file back, transparently decoding around lost blocks.

        Joins the data blocks' bytes, cut at the written length, into one
        ``bytes``: the one copy a read makes.  A block is lost when its node
        is dead, it is absent, or it is not one block of field elements long
        (the shape and dtype :meth:`verify_stripe` checks); a stripe with
        fewer than ``k`` readable blocks raises ``IOError``.
        """
        if name not in self.files:
            raise KeyError(f"unknown file {name!r}")
        stripe_ids, length = self.files[name]
        shape, dtype = (self.block_bytes,), self.code.field.dtype
        blocks: list[np.ndarray] = []  # the file's data blocks, in order
        for sid in stripe_ids:
            available: dict[int, np.ndarray] = {}
            for b, node in enumerate(self.layout[sid].placement):
                agent, bname = self.agents[node], block_name(sid, b)
                if agent.alive and agent.store.has(bname):
                    block = agent.read_block(bname)
                    if block.shape == shape and block.dtype == dtype:
                        available[b] = block
            missing = [b for b in range(self.code.k) if b not in available]
            if missing:  # degraded read
                if len(available) < self.code.k:
                    raise IOError(f"stripe {sid} unrecoverable: {len(available)} blocks left")
                available.update(self.code.decode(available, missing))
            blocks += (available[b] for b in range(self.code.k))
        return join_bytes(blocks, length)

    def serve(self, request):
        """Run a client workload (optionally merged with a repair storm).

        ``request`` is a :class:`repro.workload.serving.ServeRequest`; the
        run provisions the spec's objects, serves its trace through the
        agents (degraded reads decode lost blocks on the fly via the shared
        :attr:`plan_cache`), queues any ``request.repair`` jobs on the
        scheduler, and simulates foreground and repair flows in one merged
        wave.  Returns a :class:`repro.workload.serving.ServeResult` with
        p50/p99 read-latency tables.  See ``docs/SERVING.md``.
        """
        from repro.workload.serving import ServeRequest, ServingPlane

        if not isinstance(request, ServeRequest):
            raise TypeError(
                f"serve() takes a ServeRequest, got {type(request).__name__}"
            )
        plane = ServingPlane(
            self,
            request.spec,
            foreground_weight=request.foreground_weight,
            decode_mbps=request.decode_mbps,
            chunks=request.chunks,
            fast_path=request.fast_path,
            network=request.network,
        )
        return plane.run(repair=request.repair)

    # -------------------------------------------------------------- #
    # failure handling
    # -------------------------------------------------------------- #
    def beat(self, node_id: int, now: float) -> None:
        self.monitor.beat(node_id, now)

    def beat_alive(self, now: float) -> None:
        """All currently-alive agents heartbeat (convenience for tests)."""
        for i, agent in self.agents.items():
            if agent.alive:
                self.monitor.beat(i, now)

    def crash_node(self, node_id: int) -> None:
        """Crash an agent: its data is gone; heartbeats stop."""
        self.agents[node_id].fail()
        self.cluster[node_id].fail()

    def detect_failures(self, now: float) -> list[int]:
        """Heartbeat-timeout failure detection (marks cluster nodes dead)."""
        dead = self.monitor.dead_nodes(now)
        for i in dead:
            if self.cluster[i].alive:
                self.cluster[i].fail()
            if self.agents[i].alive:
                self.agents[i].fail()
        return dead

    # -------------------------------------------------------------- #
    # repair: the facade and its routing
    # -------------------------------------------------------------- #
    def repair(self, request: "RepairRequest | list[RepairRequest]") -> RepairResult:
        """Repair every stripe that lost blocks to the current dead nodes.

        **The one entry point.**  Pass a :class:`~repro.system.request.
        RepairRequest` (or a list of them, queued as contending scheduler
        jobs) and get a :class:`~repro.system.request.RepairResult` back;
        the request's fields pick the route — healthy round, fault runtime,
        adaptive re-planning, or the concurrent scheduler::

            coord.repair(RepairRequest())                        # hmbr round
            coord.repair(RepairRequest(scheme="cr"))             # cr round
            coord.repair(RepairRequest(faults=schedule))         # degraded
            coord.repair([RepairRequest(priority="foreground"),
                          RepairRequest(priority="background")]) # scheduled

        Every route plans through :meth:`plan_round`, commits rebuilt
        blocks through :meth:`commit_outputs` and reports through
        :meth:`round_result` (see ``docs/ARCHITECTURE.md``).
        """
        if (
            isinstance(request, (list, tuple))
            and request
            and all(isinstance(r, RepairRequest) for r in request)
        ):
            return self._repair_request_many(list(request))
        if not isinstance(request, RepairRequest):
            raise TypeError(
                "repair() takes a RepairRequest or a non-empty list of them, e.g. "
                f"repair(RepairRequest(scheme='hmbr')); got {request!r}"
            )
        if request.needs_scheduler():
            return self._repair_request_many([request])
        if request.adaptive:
            from repro.adaptive.runtime import AdaptiveRuntime

            return AdaptiveRuntime(self, request).repair()
        events = as_network(request.network).events_for(self.cluster)
        if request.faults is not None:
            from repro.faults.runtime import FaultRuntime

            return FaultRuntime.from_request(self, request).repair(request, events)
        return self._repair_round(request, events)

    def _repair_request_many(self, reqs: list[RepairRequest]) -> RepairResult:
        """Run requests as scheduler jobs sharing one admission queue.

        Per-job fields (scheme, stripes, priority, weight, arrival) come
        from each request; run-global fields (verify, faults) must be
        expressible once per run — see
        :meth:`RepairScheduler.run_requests
        <repro.sched.scheduler.RepairScheduler.run_requests>`.
        """
        if any(r.adaptive for r in reqs):
            raise ValueError(
                "adaptive=True does not compose with scheduled requests "
                "(a request list, or priority/weight/arrival_s/stripes)"
            )
        nets = [r.network for r in reqs if r.network is not None]
        if any(n != nets[0] for n in nets[1:]):
            raise ValueError(
                "requests in one scheduled run must share a network trace"
            )
        before = self.meter()
        report = self.sched.run_requests(reqs, network=nets[0] if nets else None)
        return self._result(reqs[0], before, report.jobs, {}, report)

    def _repair_round(self, req: RepairRequest, events) -> RepairResult:
        """One healthy repair round.

        New nodes are drawn from the spare pool (one replacement per dead
        node).  Repairs of different stripes run in parallel: their plans are
        simulated together so shared links contend, and centers are spread
        with the §IV-C LFS+LRS scheduler.  ``events`` (materialized from the
        request's :class:`~repro.simnet.network.NetworkTrace`) perturb the
        timing simulation only.
        """
        before = self.meter()
        rnd, makespan, per_stripe = self._run_round(
            req.scheme,
            ("repair", "repair"),
            events=events,
            dispatch=lambda rnd: self.dispatch_round(rnd, req.verify),
        )
        return self.round_result(
            req, before, rnd.plans, makespan, per_stripe, rnd.replacement_of
        )

    def plan_repair(
        self,
        scheme: str = "hmbr",
        *,
        stripes=None,
        commit: bool = False,
        network=None,
    ) -> RepairTiming:
        """Plan and time a repair round without moving a byte.

        ``network`` (anything :func:`repro.simnet.network.as_network`
        accepts) perturbs the timing simulation with its bandwidth
        events, so the fast path can answer "how long under *this*
        churn"; plans and placements are unaffected.

        The **stripe-metadata-only fast path**: runs the exact planning
        pipeline of :meth:`repair` — spare assignment, LFS/LRS center
        picks, the round's HMBR splits, per-stripe planners, plan validation
        — and the exact merged fluid simulation, but skips the data plane
        entirely (no ops dispatched, no payloads stored, no parity
        verified).  On a system provisioned via
        :meth:`place_stripes(..., materialize=False) <place_stripes>` this
        answers "how long would this repair take, and where would the
        blocks land" at metadata cost; the differential suite pins its
        plans, flow graphs, and makespan against byte-materializing rounds
        to 1e-9.

        ``stripes`` restricts the round to those stripe ids (``None`` =
        everything affected).  With ``commit=False`` (default) nothing is
        mutated — the stateful center scheduler is snapshotted and
        restored, so a later real run makes identical picks.  With
        ``commit=True`` the round's *metadata* effects are applied: the
        center scheduler advances, repaired blocks' placements move to
        their planned nodes, and the consumed spares join
        :attr:`reserved_spares` (a metadata-only repair stores nothing, so
        the reservation must be explicit).  Raises like :meth:`repair` on
        unknown schemes or insufficient spares.
        """
        rnd, makespan, per_stripe = self._run_round(
            scheme,
            ("plan_repair", "plan"),
            stripes=stripes,
            events=as_network(network).events_for(self.cluster),
            commit=commit,
        )
        timing = RepairTiming(
            scheme=scheme,
            dead_nodes=self.cluster.dead_ids(),
            stripes=sorted(rnd.affected),
            makespan_s=makespan,
            per_stripe_s=per_stripe,
            bytes_on_wire_mb_model=sum(p.total_transfer_mb() for _, p in rnd.plans),
            blocks_recovered=sum(len(f) for f in rnd.affected.values()),
            replacement_of=rnd.replacement_of,
            plans=rnd.plans,
            committed=commit,
        )
        if self.obs is not None and rnd.plans:
            m = self.obs.metrics
            m.counter("plan.fast_path_rounds").inc()
            m.gauge("plan.fast_path_makespan_s").set(timing.makespan_s)
        return timing

    def _run_round(
        self,
        scheme: str,
        span: tuple[str, str],
        *,
        stripes=None,
        events=(),
        dispatch=None,
        commit: bool = True,
    ):
        """Plan → dispatch → time one round: the body of every plain round.

        ``dispatch(rnd)`` is the data plane; ``None`` switches it off (the
        metadata-only fast path), in which case ``commit`` decides whether
        the round's *metadata* effects apply — placements move, spares are
        reserved, the center scheduler stays advanced — or everything is
        rolled back.  Returns ``(round plan, makespan, per-stripe
        finish)``; a round with nothing to repair is empty and costs
        nothing.  Without ``events`` a split round is timed by its kept run.
        """
        check_scheme(scheme)
        dead = self.cluster.dead_ids()
        affected = self.layout.stripes_with_failures(dead)
        if stripes is not None:
            wanted = set(stripes)
            affected = {sid: b for sid, b in affected.items() if sid in wanted}
        if not affected:
            return RoundPlan({}, {}, []), 0.0, {}
        name, cat = span
        snap = None if commit else self.center_scheduler.snapshot()
        try:
            with self.span(
                name, cat, scheme=scheme, dead_nodes=list(dead), stripes=sorted(affected)
            ):
                rnd = self.plan_round(scheme, affected)
                if dispatch is not None:
                    dispatch(rnd)
                sim = None if events else rnd.timing  # the split search's kept run
                if sim is None:
                    makespan, per_stripe, _ = self.time_plans(
                        rnd.plans, events, traced=dispatch is not None
                    )
                else:
                    if dispatch is not None and self.obs is not None:
                        tasks = rnd.tasks
                        sizes = [t.size_mb for t in tasks]
                        FluidSimulator._emit_spans(self.obs.tracer, "simulate", tasks, sizes, sim)
                    makespan, per_stripe = sim.makespan, _finishes(rnd.plans, sim)
                if dispatch is None and commit:
                    for sid, plan in rnd.plans:
                        for fb, (node, _buf) in plan.outputs.items():
                            self.layout[sid].placement[fb] = node
                    self.reserved_spares.update(rnd.replacement_of.values())
        finally:
            if snap is not None:
                self.center_scheduler.restore(snap)
        return rnd, makespan, per_stripe

    # -------------------------------------------------------------- #
    # the repair core: plan -> commit -> time (shared by every route)
    # -------------------------------------------------------------- #
    def plan_round(
        self,
        scheme: str,
        affected: dict[int, list[int]],
        *,
        replacement_of: dict[int, int] | None = None,
        lazy: bool = False,
    ) -> RoundPlan:
        """:func:`repro.repair.planner.plan_round` over this system's state.

        Spares come from :meth:`free_spares` unless the caller brings its
        own ``replacement_of``; the LFS/LRS :attr:`center_scheduler`
        advances by one pick per stripe.
        """
        with self.span("plan", "plan", scheme=scheme) as span:
            rnd = plan_round(
                self.layout, self.cluster, self.code, self.center_scheduler,
                scheme, affected,
                block_size_mb=self.block_size_mb,
                free_spares=self.free_spares() if replacement_of is None else (),
                replacement_of=replacement_of,
                lazy=lazy,
            )
            if span is not None:
                span.args.update(
                    stripes=len(rnd.work),
                    tasks=sum(len(p.tasks) for _, p in rnd.plans),
                    split=rnd.split,
                )
        return rnd

    def commit_outputs(self, sid: int, outputs: dict, verify: bool = True) -> None:
        """Store a stripe's rebuilt blocks, move their placement, verify.

        ``outputs`` maps failed block index -> ``(new node, buffer)``,
        the buffer being an array or the name of a scratch buffer on that
        node (a plan's :attr:`~repro.repair.plan.RepairPlan.outputs`).
        """
        stripe = self.layout[sid]
        for fb, (node, buf) in outputs.items():
            agent = self.agents[node]
            data = agent.scratch[buf] if isinstance(buf, str) else buf
            agent.store_block(block_name(sid, fb), data, overwrite=True)
            stripe.placement[fb] = node
        if verify:
            self.verify_stripe(sid)

    def dispatch_round(self, rnd: RoundPlan, verify: bool) -> None:
        """Healthy data plane for a planned round, one stripe at a time:
        run the plan's ops, commit its outputs, drop its scratch."""
        for sid, plan in rnd.plans:
            try:
                with self.span(
                    f"stripe:{sid}", "dispatch",
                    stripe=sid, scheme=plan.scheme, ops=len(plan.ops),
                ):
                    run_plan_ops(plan.ops, self.agents, self.bus)
                    self.commit_outputs(sid, plan.outputs, verify)
            finally:
                self.clear_scratch()

    def clear_scratch(self) -> None:
        """Drop every agent's in-flight buffers.  Scratch shadows stored blocks,
        so each data-plane loop calls this in a ``finally``: a repair that
        raises must not leave survivor copies behind for a later plan."""
        for agent in self.agents.values():
            agent.clear_scratch()

    def time_plans(self, plans, events=(), traced: bool = True):
        """Simulate committed ``(stripe id, plan)`` pairs as one merged DAG.

        Returns ``(makespan, per-stripe finish, simulation result)``, the
        finishes as :func:`_finishes` reads them.
        """
        if not plans:
            return 0.0, {}, None
        tracer = self.obs.tracer if traced and self.obs is not None else None
        sim = FluidSimulator(self.cluster).run(
            [t for _, plan in plans for t in plan.tasks],
            events=list(events),
            tracer=tracer,
        )
        return sim.makespan, _finishes(plans, sim), sim

    def meter(self) -> tuple[int, dict[int, float]]:
        """``(bus bytes, per-agent compute seconds)`` so far, to diff a run against."""
        return self.bus.total_bytes(), {
            i: a.compute_seconds for i, a in self.agents.items()
        }

    def round_result(
        self,
        req: RepairRequest,
        before,
        plans,
        makespan_s: float,
        per_stripe: dict[int, float],
        replacements: dict[int, int],
        *,
        report=None,
        bytes_on_wire_mb_model: float | None = None,
    ) -> RepairResult:
        """The :class:`RepairResult` of one un-scheduled round.

        The round is one ``done`` :class:`~repro.sched.job.RepairJob`,
        ``round0``, that finished at ``makespan_s``.  ``before`` is the :meth:`meter` reading
        taken when the round began; ``plans`` the committed ``(stripe id,
        plan)`` pairs, whose summed wire MB is the default
        ``bytes_on_wire_mb_model``.
        """
        if bytes_on_wire_mb_model is None:
            bytes_on_wire_mb_model = sum(p.total_transfer_mb() for _, p in plans)
        job = RepairJob(
            "round0", scheme=req.scheme, priority=req.priority, state=DONE,
            finish_s=makespan_s,
            stripes_repaired=sorted({sid for sid, _ in plans}),
            blocks_recovered=sum(len(p.outputs) for _, p in plans),
            bytes_on_wire_mb_model=bytes_on_wire_mb_model,
            per_stripe_transfer_s=per_stripe,
        )
        return self._result(req, before, [job], replacements, report)

    def _result(self, req, before, jobs, replacements, report) -> RepairResult:
        """Assemble a :class:`RepairResult` from a run's finished ``jobs``:
        every route's result is built here, each total from the jobs.  Also
        feeds the ``repair.*`` headline metrics of an attached obs session."""
        bytes_before, compute_before = before
        result = RepairResult(
            request=req,
            stripes_repaired=sorted({sid for j in jobs for sid in j.stripes_repaired}),
            blocks_recovered=sum(j.blocks_recovered for j in jobs),
            makespan_s=max(
                (j.finish_s for j in jobs if j.finish_s is not None), default=0.0
            ),
            bytes_moved=self.bus.total_bytes() - bytes_before,
            bytes_on_wire_mb_model=sum(j.bytes_on_wire_mb_model for j in jobs),
            compute_s_total=sum(
                a.compute_seconds - compute_before.get(i, 0.0)
                for i, a in self.agents.items()
            ),
            jobs=jobs,
            per_stripe_transfer_s={
                sid: t for j in jobs for sid, t in j.per_stripe_transfer_s.items()
            },
            replacements=replacements,
            report=report,
        )
        if self.obs is not None:
            m = self.obs.metrics
            m.counter("repair.runs").inc()
            m.counter("repair.blocks_recovered").inc(result.blocks_recovered)
            m.gauge("repair.simulated_transfer_s").set(result.makespan_s)
            m.gauge("repair.compute_s_total").set(result.compute_s_total)
            m.gauge("repair.bytes_on_wire_mb_model").set(result.bytes_on_wire_mb_model)
            for t in result.per_stripe_transfer_s.values():
                m.histogram("repair.stripe_transfer_s").observe(t)
        return result

    def simulate_years(self, spec) -> "object":
        """Run the macro-scale durability simulator over this code shape.

        ``spec`` is a :class:`repro.reliability.ReliabilitySpec`; fields
        left as ``None`` (``k``, ``m``, ``block_size_mb``) inherit this
        coordinator's code shape and modeled block size, so
        ``coord.simulate_years(ReliabilitySpec(horizon_years=10))`` asks
        "how durable is *this* system's configuration over a decade".
        Returns a :class:`repro.reliability.ReliabilityReport` (MTTDL,
        P(data loss by year t) curves with confidence intervals,
        per-trial outcomes); an attached obs session records
        ``reliability.*`` spans and metrics.  See ``docs/RELIABILITY.md``.
        """
        import dataclasses

        from repro.reliability import ReliabilitySimulator

        fills = {}
        if spec.k is None:
            fills["k"] = self.code.k
        if spec.m is None:
            fills["m"] = self.code.m
        if spec.block_size_mb is None:
            fills["block_size_mb"] = self.block_size_mb
        if fills:
            spec = dataclasses.replace(spec, **fills)
        return ReliabilitySimulator(spec, obs=self.obs).run()

    @property
    def sched(self):
        """The coordinator's :class:`~repro.sched.scheduler.RepairScheduler`.

        Created lazily on first use so un-scheduled workloads pay nothing;
        assign a scheduler (or mutate ``sched.admission.policy``) to change
        the admission policy.
        """
        if self._sched is None:
            from repro.sched.scheduler import RepairScheduler

            self._sched = RepairScheduler(self)
        return self._sched

    @sched.setter
    def sched(self, scheduler) -> None:
        self._sched = scheduler

    def update(self, name: str, offset: int, patch: bytes | np.ndarray) -> dict:
        """In-place update with delta parity maintenance.

        Overwrite ``patch``'s C-order bytes (read as :meth:`write` reads a
        payload) at byte ``offset`` of the file.  Instead
        of re-encoding whole stripes, each touched data block sends only the
        GF *delta* of the patched span to the parity nodes:
        ``P_j[span] ^= alpha_{i,j} * (new - old)[span]`` — the standard
        parity-delta update the related work (§VI) optimizes.
        Atomic: a patch touching a block on a dead node raises ``IOError``
        before anything is written.  Returns accounting: blocks patched,
        parity deltas applied, and each delta as ``(stripe id, data block,
        parity index, data host, parity host)``.
        """
        if name not in self.files:
            raise KeyError(f"unknown file {name!r}")
        stripe_ids, length = self.files[name]
        patch_arr = _c_bytes(patch)
        if offset < 0 or offset + patch_arr.size > length:
            raise ValueError("update range outside the file")
        k, itemsize = self.code.k, np.dtype(self.code.field.dtype).itemsize
        block_payload = self.block_bytes * itemsize
        stripe_payload = k * block_payload
        # validate every touched data block's host before mutating anything,
        # so a patch straddling a dead node fails without a partial write
        spans = []  # (stripe, data block index, block byte range, new bytes)
        pos = 0
        while pos < len(patch_arr):
            abs_off = offset + pos
            stripe = self.layout[stripe_ids[abs_off // stripe_payload]]
            block_idx, lo = divmod(abs_off % stripe_payload, block_payload)
            hi = min(block_payload, lo + len(patch_arr) - pos)
            node = stripe.placement[block_idx]
            if not self.agents[node].alive:
                raise IOError(f"cannot update block on dead node {node}")
            spans.append((stripe, block_idx, lo, hi, patch_arr[pos : pos + hi - lo]))
            pos += hi - lo
        deltas = []
        for stripe, block_idx, lo, hi, piece in spans:
            sid = stripe.stripe_id
            node = stripe.placement[block_idx]
            agent = self.agents[node]
            bname = block_name(sid, block_idx)
            new = agent.read_block(bname).copy()
            # the elements the bytes touch (a GF(2^16) word patched in part)
            lo_e, hi_e = lo // itemsize, -(-hi // itemsize)
            span = new[lo_e:hi_e]
            delta = span.copy()
            new.view(np.uint8)[lo:hi] = piece
            delta ^= span
            agent.store_block(bname, new, overwrite=True)
            # only the patched span travels: one (m, 1) x (1, span) product
            # scales the delta for every parity node at once
            scaled = matmul(
                self.code.generator[k:, block_idx : block_idx + 1], delta[None, :], self.code.field
            )
            for j in range(self.code.m):
                pnode = stripe.placement[k + j]
                pagent = self.agents[pnode]
                if not pagent.alive:
                    continue  # parity will be rebuilt by repair later
                pname = block_name(sid, k + j)
                parity = pagent.read_block(pname).copy()
                parity[lo_e:hi_e] ^= scaled[j]
                pagent.store_block(pname, parity, overwrite=True)
                self.bus.record(node, pnode, delta.nbytes)
                deltas.append((sid, block_idx, j, node, pnode))
        return {
            "blocks_patched": len(spans),
            "parity_deltas": len(deltas),
            "deltas": deltas,
        }

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #
    def delete(self, name: str) -> int:
        """Delete a file: drop its blocks from every agent; returns blocks freed."""
        if name not in self.files:
            raise KeyError(f"unknown file {name!r}")
        stripe_ids, _ = self.files.pop(name)
        freed = 0
        for sid in stripe_ids:
            for b, node in enumerate(self.layout.remove(sid).placement):
                agent = self.agents[node]
                if agent.alive:
                    agent.store.delete(block_name(sid, b))
                    freed += 1
        return freed

    def rebalance(self, max_moves: int | None = None, tolerance: int = 1) -> dict:
        """Even out per-node block counts after repairs shifted load.

        Repairs land every reconstructed block on ex-spare nodes, so after a
        few failure cycles placement skews.  Greedily move blocks from the
        most- to the least-loaded alive node, never co-locating two blocks
        of one stripe, until the max/min spread is within ``tolerance`` (or
        ``max_moves`` is exhausted).  Returns accounting.
        """
        moves = 0
        moved_bytes = 0
        while max_moves is None or moves < max_moves:
            counts = {i: 0 for i in self.cluster.alive_ids()}
            for stripe in self.layout:
                for nid in stripe.placement:
                    if nid in counts:
                        counts[nid] += 1
            if not counts:
                break
            hot = max(counts, key=lambda i: (counts[i], i))
            cold = min(counts, key=lambda i: (counts[i], -i))
            if counts[hot] - counts[cold] <= tolerance:
                break
            # find a block on `hot` whose stripe doesn't touch `cold`
            candidate = None
            for stripe in self.layout:
                if cold in stripe.placement:
                    continue
                b = stripe.block_on(hot)
                if b is not None:
                    candidate = (stripe, b)
                    break
            if candidate is None:
                break  # constrained: nothing movable without co-location
            stripe, b = candidate
            name = block_name(stripe.stripe_id, b)
            data = self.agents[hot].read_block(name)
            self.agents[cold].store_block(name, data)
            self.agents[hot].store.delete(name)
            stripe.placement[b] = cold
            self.bus.record(hot, cold, data.nbytes)
            moves += 1
            moved_bytes += data.nbytes
        counts = self.layout.blocks_per_node()
        alive_counts = [counts.get(i, 0) for i in self.cluster.alive_ids()]
        return {
            "moves": moves,
            "moved_bytes": moved_bytes,
            "max_blocks": max(alive_counts, default=0),
            "min_blocks": min(alive_counts, default=0),
        }

    def scrub(self) -> dict[int, bool]:
        """Background integrity scrub: re-verify parity of every stripe.

        Returns stripe id -> healthy.  A stripe with unreachable blocks
        (dead node, missing buffer) or mismatched parity reports False —
        this is how silent corruption or an incomplete repair would surface
        between heartbeat rounds.
        """
        out: dict[int, bool] = {}
        for stripe in self.layout:
            try:
                self.verify_stripe(stripe.stripe_id)
            except (AssertionError, KeyError):
                out[stripe.stripe_id] = False
            else:
                out[stripe.stripe_id] = True
        return out

    def stats(self) -> dict:
        """Operational snapshot: capacity, placement, traffic, health."""
        return {
            "nodes_alive": len(self.cluster.alive_ids()),
            "nodes_dead": len(self.cluster.dead_ids()),
            "spares_free": len(self.free_spares()),
            "files": len(self.files),
            "stripes": len(self.layout),
            "blocks_stored": sum(len(a.store) for a in self.agents.values()),
            "bytes_stored": sum(a.store.used_bytes() for a in self.agents.values()),
            "bus_transfers": self.bus.transfer_count,
            "bus_bytes": self.bus.total_bytes(),
            "bus_cross_rack_bytes": self.bus.cross_rack_bytes,
        }

    def verify_stripe(self, sid: int) -> None:
        """Re-check stripe consistency: parity rows match re-encoded data.

        Raises ``AssertionError`` on a mismatch, a block on a dead node or a
        block that is not one block of field elements long, and ``KeyError``
        for an unknown stripe id or a missing block.  The stored blocks are
        read in place.
        """
        k, dtype, shape = self.code.k, self.code.field.dtype, (self.block_bytes,)
        blocks = []
        for b, node in enumerate(self.layout[sid].placement):
            agent = self.agents[node]
            if not agent.alive:
                raise AssertionError(f"stripe {sid} block {b} maps to a dead node")
            block = agent.read_block(block_name(sid, b))
            if block.shape != shape or block.dtype != dtype:
                raise AssertionError(
                    f"stripe {sid} block {b} is a {block.dtype} array of shape {block.shape}, "
                    f"not {np.dtype(dtype)} of shape {shape}"
                )
            blocks.append(block)
        parity = self.code.encode(blocks[:k])  # the rows form: no stacking
        if not all(np.array_equal(p, s) for p, s in zip(parity, blocks[k:])):
            raise AssertionError(f"stripe {sid} failed post-repair parity verification")
