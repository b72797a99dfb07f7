"""Online serving plane: client reads/writes under live repair traffic.

:class:`ServingPlane` drives a :class:`~repro.workload.generator.
WorkloadSpec` trace against a :class:`~repro.system.coordinator.
Coordinator`, in the same two-plane style every other layer uses:

* **data plane** — each read fetches its stripes' blocks from the agents
  through the metered :class:`~repro.system.bus.DataBus`.  A read landing
  on a dead/empty node takes the **degraded path**: the first ``k``
  surviving blocks ship to the gateway and the lost data blocks decode on
  the fly through the coordinator's shared
  :class:`~repro.repair.batch.PlanCache` /
  :class:`~repro.repair.batch.BatchRepairEngine` — bit-exact with a
  healthy read by construction (the differential suite pins it).  A stripe
  with fewer than ``k`` survivors raises
  :class:`~repro.faults.errors.StripeUnrecoverable`.  Writes go through
  :meth:`Coordinator.update`'s parity-delta path.  Within one run each
  stripe is scanned once and each object version decoded and hashed once,
  into the run's read template (:meth:`ServingPlane._read_plan`); every op
  still meters its own fetches and builds its own timing tasks.
* **timing plane** — every op contributes arrival-gated
  :class:`~repro.simnet.flows.Flow`/:class:`~repro.simnet.flows.DelayTask`
  tasks at the foreground weight, merged into the **same**
  :class:`~repro.simnet.fluid.FluidSimulator` wave as any queued repair
  jobs via :meth:`RepairScheduler.run_pending(foreground=...)
  <repro.sched.scheduler.RepairScheduler.run_pending>` — so a repair storm
  genuinely steals bandwidth from users in proportion to the scheduler's
  priority weights.  Degraded reads additionally pay a *modeled* decode
  delay (``blocks x block_size_mb / decode_mbps``), never wall clock, so
  every latency percentile is deterministic.

Two latency optimizations ride on top (both default-compatible with the
barrier model; see ``docs/PIPELINING_READS.md``):

* **chunked decode pipelining** (``chunks > 1``) — each degraded read is
  split into word-aligned column slices through
  :mod:`repro.workload.pipeline`; per-chunk survivor sub-flows stream and
  the per-chunk decode delays chain on the gateway's decode lane, so
  decode overlaps the remaining fetches instead of waiting for the last
  block.  Bit-exact with the barrier path for every chunk count.
* **the partially-repaired-stripe fast path** (``fast_path=True``) — when
  a repair storm is queued, :meth:`RepairScheduler.estimate_finish_s
  <repro.sched.scheduler.RepairScheduler.estimate_finish_s>` provides a
  planning-only per-stripe landing clock; ops arriving after a stripe's
  estimated landing short-circuit to a healthy read against the planned
  spare (the repaired block is already there in the modeled timeline),
  skipping the degraded surcharge entirely.


Per-op read latencies summarize through
:func:`repro.obs.metrics.latency_summary` into p50/p99 tables for the
three regimes the ISSUE names (healthy / degraded / repair storm); with an
:class:`~repro.obs.session.Observability` session attached the run also
emits ``workload.*`` spans in both clock domains and ``workload.*`` metric
series, without changing a single reported number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._bytes import join_bytes
from repro.ec.stripe import block_name
from repro.faults.errors import StripeUnrecoverable
from repro.obs.metrics import latency_summary
from repro.repair.batch import BatchRepairEngine
from repro.simnet.flows import DelayTask, Flow
from repro.system.request import RepairRequest
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, object_payload
from repro.workload.pipeline import (
    chunk_slices,
    chunked_read_tasks,
    decode_chunked,
    read_pipeline_saved_s,
)


@dataclass(frozen=True)
class ServeRequest:
    """One serving scenario: a workload plus an optional repair storm.

    ``repair`` requests are queued on the coordinator's scheduler and run
    in the same merged simulation as the workload's foreground tasks (at
    most one may carry a fault schedule, and all must agree on ``verify``,
    mirroring
    :meth:`Coordinator.repair <repro.system.coordinator.Coordinator.
    repair>`'s multi-request rules).  ``foreground_weight`` is the fair-
    share weight of every client flow (the scheduler's foreground class
    default is 4.0); ``decode_mbps`` the modeled gateway decode throughput
    charged per degraded block.  ``chunks`` splits every degraded read
    into that many pipelined sub-block slices (1 = the barrier model);
    ``fast_path`` lets ops arriving after a queued repair's estimated
    landing read the rebuilt block from its spare instead of degrading.
    ``network`` (anything :func:`~repro.simnet.network.as_network`
    accepts) perturbs the merged simulation with its bandwidth events, so
    client traffic and repair flows contend on a *changing* network.
    """

    spec: WorkloadSpec
    repair: tuple = ()
    foreground_weight: float = 4.0
    decode_mbps: float = 1024.0
    chunks: int = 1
    fast_path: bool = True
    network: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "repair", tuple(self.repair))
        if self.network is not None:
            from repro.simnet.network import as_network

            object.__setattr__(self, "network", as_network(self.network))
        if self.foreground_weight <= 0:
            raise ValueError("foreground_weight must be positive")
        if self.decode_mbps <= 0:
            raise ValueError("decode_mbps must be positive")
        if int(self.chunks) != self.chunks or self.chunks < 1:
            raise ValueError(f"chunks must be a positive integer, got {self.chunks}")
        object.__setattr__(self, "chunks", int(self.chunks))
        for r in self.repair:
            if not isinstance(r, RepairRequest):
                raise TypeError(
                    f"repair entries must be RepairRequest, got {type(r).__name__}"
                )
        if sum(1 for r in self.repair if r.faults is not None) > 1:
            raise ValueError("at most one repair request per run may carry faults")
        if len({r.verify for r in self.repair}) > 1:
            raise ValueError("repair requests in one run must agree on verify")


@dataclass(frozen=True)
class OpOutcome:
    """What one client op did and how long it took (simulated seconds).

    ``digest`` is the sha256 of the returned payload for completed reads
    (chaos tests verify bytes without keeping payloads around); failed
    reads carry the :class:`~repro.faults.errors.StripeUnrecoverable`
    message in ``error`` and are excluded from the latency percentiles.
    ``fast_stripes`` counts stripes this op served through the
    partially-repaired fast path (such stripes are *not* degraded: their
    timing is a healthy fetch against the planned spare).
    """

    op_id: int
    kind: str
    obj: str
    t_s: float
    ok: bool
    degraded: bool
    degraded_stripes: int
    nbytes: int
    digest: str
    finish_s: float
    latency_s: float
    error: str = ""
    fast_stripes: int = 0


@dataclass
class ServeResult:
    """Outcome of one :meth:`ServingPlane.run`."""

    spec: WorkloadSpec
    outcomes: list[OpOutcome]
    #: :func:`~repro.obs.metrics.latency_summary` tables over completed
    #: reads: all of them, the healthy subset, and the degraded subset.
    latency: dict
    latency_healthy: dict
    latency_degraded: dict
    reads: int
    degraded_reads: int
    failed_reads: int
    writes: int
    failed_writes: int
    #: bytes the foreground data plane itself metered on the bus (block
    #: fetches to gateways + parity deltas); conservation tests check this
    #: against :meth:`DataBus.total_bytes` deltas.
    foreground_bytes: int
    #: total bus-byte delta across the run (foreground + any repair jobs).
    bus_bytes_delta: int
    #: scheduler-global simulated makespan of the merged run.
    makespan_s: float
    #: the merged wave's :class:`~repro.sched.scheduler.SchedulerReport`.
    repair: object = None
    plan_cache_stats: dict = field(default_factory=dict)
    #: ops that served at least one stripe through the partially-repaired
    #: fast path (healthy-style reads against the planned spare).
    fast_path_reads: int = 0
    #: simulated seconds the chunked decode pipeline recovered versus the
    #: barrier model, summed over every degraded stripe read.
    pipeline_saved_s: float = 0.0
    #: the run's degraded-read chunk count (1 = barrier model).
    chunks: int = 1

    def summary(self) -> dict:
        """Golden-friendly scalar view (deterministic, wall-clock-free)."""
        return {
            "ops": len(self.outcomes),
            "reads": self.reads,
            "degraded_reads": self.degraded_reads,
            "fast_path_reads": self.fast_path_reads,
            "failed_reads": self.failed_reads,
            "writes": self.writes,
            "failed_writes": self.failed_writes,
            "latency_all": self.latency,
            "latency_healthy": self.latency_healthy,
            "latency_degraded": self.latency_degraded,
            "foreground_bytes": self.foreground_bytes,
            "makespan_s": self.makespan_s,
            "chunks": self.chunks,
            "pipeline_saved_s": self.pipeline_saved_s,
            "repair_jobs": len(self.repair.jobs) if self.repair is not None else 0,
            "repair_makespan_s": (
                self.repair.makespan_s if self.repair is not None else 0.0
            ),
        }


class ServingPlane:
    """Serves one workload against a coordinator (see the module docstring).

    Reusable: :meth:`provision` is idempotent, and every :meth:`run`
    regenerates the trace from the spec seed, so the same plane can serve
    the same workload across healthy/degraded/storm regimes of one system
    (the canonical golden scenario does exactly that).
    """

    def __init__(
        self,
        coord,
        spec: WorkloadSpec,
        *,
        foreground_weight: float = 4.0,
        decode_mbps: float = 1024.0,
        chunks: int = 1,
        fast_path: bool = True,
        network=None,
    ):
        if foreground_weight <= 0:
            raise ValueError("foreground_weight must be positive")
        if decode_mbps <= 0:
            raise ValueError("decode_mbps must be positive")
        if int(chunks) != chunks or chunks < 1:
            raise ValueError(f"chunks must be a positive integer, got {chunks}")
        self.coord = coord
        self.spec = spec
        self.foreground_weight = foreground_weight
        self.decode_mbps = decode_mbps
        self.chunks = int(chunks)
        self.fast_path = fast_path
        #: how capacities change during the run (see ``ServeRequest.network``).
        self.network = network
        self.gen = WorkloadGenerator(spec)
        #: stripe id -> estimated repair landing (set per run; see run()).
        self._eta: dict[int, float] = {}
        #: dead node -> planned replacement spare, from the same estimate.
        self._repl: dict[int, int] = {}

    # -------------------------------------------------------------- #
    # provisioning
    # -------------------------------------------------------------- #
    def provision(self) -> int:
        """Write every workload object that does not exist yet.

        Object bodies come from :func:`~repro.workload.generator.
        object_payload`, so a test can recompute any object's expected
        bytes from the spec alone.  Returns how many objects were written.
        """
        coord, spec = self.coord, self.spec
        written = 0
        for i in range(spec.n_objects):
            name = spec.object_name(i)
            if name in coord.files:
                continue
            coord.write(name, object_payload(spec, i))
            written += 1
        return written

    # -------------------------------------------------------------- #
    # data plane
    # -------------------------------------------------------------- #
    def read_object(self, name: str, *, gateway: int | None = None) -> bytes:
        """The exact bytes a client read of ``name`` returns right now.

        Data plane only (no timing tasks): fetches are metered on the bus
        and lost data blocks decode through the shared plan cache — the
        same :meth:`_read_plan` path :meth:`run` takes, with a fresh read
        template of its own, so differential tests can compare a degraded
        read against a healthy one byte for byte.  A block of the wrong
        length counts as lost.  Raises
        :class:`~repro.faults.errors.StripeUnrecoverable` when any stripe
        has fewer than ``k`` survivors.
        """
        gw = gateway if gateway is not None else self._gateways()[0]
        engine = BatchRepairEngine(
            self.coord.code, cache=self.coord.plan_cache, obs=self.coord.obs
        )
        payload, _ = self._read_plan(name, gw, engine, {}, None, "")
        return payload

    def _gateways(self) -> list[int]:
        gws = sorted(self.coord.data_nodes())
        if not gws:
            raise RuntimeError("no alive data nodes to serve from")
        return gws

    def _read_plan(
        self, name, gateway, engine, template, tasks, task_prefix, arrival_s=None
    ):
        """Meter, time and (once per template) decode one object read.

        ``template`` is the caller's read template: a plain dict keyed by
        stripe id (that stripe's ``(available, missing, chosen)`` scan) and
        by object name (that object's ``(nbytes, sha256 hex digest)``, which
        the caller stores).  A stripe's scan is built on its first read and
        reused after: no write loses or moves a block (:meth:`run` drops
        only a written object's entry) and :meth:`read_object` passes a
        fresh one.  Returns ``(payload, stats)``; ``payload`` is
        the object's bytes when ``template`` holds no entry for ``name``
        (its data blocks' bytes, cut at the written length, as
        :meth:`Coordinator.read <repro.system.coordinator.Coordinator.read>`
        joins them), and ``None`` (no block read, no decode) when it does.

        Everything else is per op, template or not: the fast-path decision
        against ``arrival_s``, each fetch's ``bus.check`` + ``bus.record``
        in block order, the ``stats`` and, when ``tasks`` is a list, the
        op's timing tasks (``task_prefix`` must then be the op's unique
        ``fg:<id>:`` prefix, with the arrival task ``<prefix>arr`` already
        present).  ``stats`` carries the ``degraded`` / ``fast`` stripe
        counts, the ``metered`` foreground bytes, and one :class:`~repro.
        workload.pipeline.StripeChunkPlan` per degraded stripe for post-sim
        accounting.  ``arrival_s`` (the op's arrival instant) arms the fast
        path; data-plane-only callers like :meth:`read_object` leave it
        ``None``.
        """
        coord = self.coord
        k, bb = coord.code.k, coord.block_bytes
        nbytes = bb * np.dtype(coord.code.field.dtype).itemsize
        bus = coord.bus
        stripe_ids, length = coord.files[name]
        obs = coord.obs
        tracer = obs.tracer if obs is not None else None
        want = name not in template
        parts = []
        stats = {"degraded": 0, "fast": 0, "metered": 0, "chunk_plans": []}
        for sid in stripe_ids:
            entry = template.get(sid)
            if entry is None:
                entry = template[sid] = self._scan_stripe(sid)
                if obs is not None:
                    obs.metrics.counter("workload.read_templates").inc()
            elif obs is not None:
                obs.metrics.counter("workload.read_template_hits").inc()
            available, missing, chosen = entry
            if missing and len(available) < k:
                raise StripeUnrecoverable(sid, len(available), k)
            stripe = coord.layout[sid]
            if missing and self._fast_path_ready(sid, stripe, missing, arrival_s):
                if want:
                    parts.extend(self._stripe_data(sid, entry, engine, 1, None, ""))
                self._read_fast(
                    sid, stripe, available, gateway, nbytes, tasks, task_prefix, stats
                )
                continue
            fetches: list[tuple[int, int]] = []
            for b in chosen:
                host = available[b]
                if host != gateway:
                    bus.check(host, gateway, nbytes)
                    bus.record(host, gateway, nbytes)
                    stats["metered"] += nbytes
                    fetches.append((b, host))
            label = f"{task_prefix}s{sid}:"
            if missing:
                stats["degraded"] += 1
                slices = chunk_slices(bb, self.chunks)
                if want:
                    parts.extend(self._stripe_data(sid, entry, engine, self.chunks, tracer, label))
                elif tracer is not None:
                    # a template hit decodes nothing; its chunk spans say so
                    for sl in slices:
                        tracer.end(
                            tracer.begin(
                                f"workload.chunk:{label}c{sl.index}",
                                actor="serving", cat="workload", chunk=sl.index,
                                lo=sl.lo, hi=sl.hi, chunks=len(slices),
                                decoded=False,
                            )
                        )
                if tasks is not None:
                    # modeled per-chunk fetch sub-flows + decode delays at
                    # the gateway — deterministic, never wall clock.
                    plan = chunked_read_tasks(
                        prefix=task_prefix, sid=sid, fetches=fetches,
                        n_missing=len(missing), slices=slices,
                        block_size_mb=coord.block_size_mb,
                        decode_mbps=self.decode_mbps,
                        weight=self.foreground_weight, gateway=gateway,
                    )
                    tasks.extend(plan.tasks)
                    stats["chunk_plans"].append(plan)
                continue
            if want:
                parts.extend(self._stripe_data(sid, entry, engine, 1, None, ""))
            if tasks is not None:
                for b, host in fetches:
                    tasks.append(
                        Flow(
                            f"{label}b{b}", host, gateway,
                            coord.block_size_mb, deps=(f"{task_prefix}arr",),
                            tag="fg", weight=self.foreground_weight,
                        )
                    )
        if not want:
            return None, stats
        return join_bytes(parts, length), stats

    def _scan_stripe(self, sid):
        """One stripe's read template: ``(available, missing, chosen)``.

        ``available`` maps each readable block to its host: one on a live
        node, stored, and one block of field elements long (the check
        :meth:`Coordinator.read <repro.system.coordinator.Coordinator.read>`
        makes).  ``missing`` lists the unreadable data blocks and ``chosen``
        the blocks a read fetches: the data blocks when none is missing,
        else the first ``k`` readable ones.
        """
        coord = self.coord
        k = coord.code.k
        shape, dtype = (coord.block_bytes,), coord.code.field.dtype
        available: dict[int, int] = {}
        for b, node in enumerate(coord.layout[sid].placement):
            agent = coord.agents[node]
            bname = block_name(sid, b)
            if agent.alive and agent.store.has(bname):
                block = agent.read_block(bname)
                if block.shape == shape and block.dtype == dtype:
                    available[b] = node
        missing = [b for b in range(k) if b not in available]
        chosen = sorted(available)[:k] if missing else list(range(k))
        return available, missing, chosen

    def _stripe_data(self, sid, entry, engine, chunks, tracer, label):
        """One stripe's data blocks, in order: the chosen blocks read in
        place and the missing ones decoded through
        :func:`~repro.workload.pipeline.decode_chunked`."""
        coord = self.coord
        available, missing, chosen = entry
        bufs = {
            b: coord.agents[available[b]].read_block(block_name(sid, b))
            for b in chosen
        }
        if missing:
            stacked = np.stack([bufs[b] for b in chosen])[None, ...]
            decoded = decode_chunked(
                engine, tuple(chosen), tuple(missing), stacked, chunks,
                tracer=tracer, label=label,
            )
            for j, b in enumerate(missing):
                bufs[b] = decoded[0, j]
        return [bufs[b] for b in range(coord.code.k)]

    def _fast_path_ready(self, sid, stripe, missing, arrival_s) -> bool:
        """True when the op arrives after the stripe's estimated repair."""
        eta = self._eta.get(sid)
        return (
            eta is not None
            and arrival_s is not None
            and arrival_s >= eta
            and all(stripe.placement[b] in self._repl for b in missing)
        )

    def _read_fast(
        self, sid, stripe, available, gateway, nbytes, tasks, task_prefix, stats
    ):
        """Meter and time a partially-repaired stripe as a healthy read.

        The scheduler's planning-only estimate says this stripe's repair
        landed before the op arrived, so the timing plane models a healthy
        fetch against the repaired layout: one whole-block flow per data
        block, with rebuilt blocks shipping from their planned spare — no
        degraded surcharge.  The payload still decodes from the current
        survivors (repairs are bit-exact, so the bytes are identical
        either way; :meth:`_read_plan` does that), and exactly the modeled
        fetches are metered on the bus, ``nbytes`` each (one block of field
        elements, as on the healthy and degraded paths).
        """
        coord = self.coord
        stats["fast"] += 1
        for b in range(coord.code.k):
            host = (
                available[b] if b in available
                else self._repl[stripe.placement[b]]
            )
            if host == gateway:
                continue
            coord.bus.check(host, gateway, nbytes)
            coord.bus.record(host, gateway, nbytes)
            stats["metered"] += nbytes
            if tasks is not None:
                tasks.append(
                    Flow(
                        f"{task_prefix}s{sid}:b{b}", host, gateway,
                        coord.block_size_mb, deps=(f"{task_prefix}arr",),
                        tag="fg", weight=self.foreground_weight,
                    )
                )

    def _write_plan(self, op, template, tasks, task_prefix):
        """Apply one write op; returns (ok, metered_bytes).

        A write that lands drops the written object's entry from the run's
        read ``template``: :meth:`Coordinator.update` stores same-shape
        blocks on the same hosts, so every stripe scan stays exact.  A
        write touching a block on a dead node is refused whole (``update``
        is atomic) and drops nothing.  Timing: one foreground flow per
        applied parity delta — exactly the transfers the data plane metered.
        """
        coord = self.coord
        bus_before = coord.bus.total_bytes()
        try:
            report = coord.update(op.obj, op.offset, self.gen.patch_bytes(op))
        except IOError:
            return False, 0
        template.pop(op.obj, None)
        if tasks is not None:
            for sid, bi, j, node, pnode in report["deltas"]:
                tasks.append(
                    Flow(
                        f"{task_prefix}w{sid}:{bi}:p{j}",
                        node, pnode, coord.block_size_mb,
                        deps=(f"{task_prefix}arr",), tag="fg",
                        weight=self.foreground_weight,
                    )
                )
        # update() ships only the patched span of each delta, so the
        # metered bytes are read back off the bus, not derived from bb
        return True, coord.bus.total_bytes() - bus_before

    # -------------------------------------------------------------- #
    # the run
    # -------------------------------------------------------------- #
    def run(self, repair=()) -> ServeResult:
        """Serve the whole trace, merged with ``repair`` storm jobs.

        The foreground data plane executes first (reads return what the
        cluster holds *before* this run's repairs land — the degraded-read
        regime), then the timing plane runs every foreground task and every
        repair job through one merged scheduler pass.
        """
        coord, spec = self.coord, self.spec
        self.provision()
        obs = coord.obs
        self._eta, self._repl = {}, {}
        reqs = tuple(repair)
        est = None
        if reqs and self.fast_path and all(r.faults is None for r in reqs):
            # Planning-only landing clock for the fast path: which stripes
            # the queued storm will have rebuilt by when (state-free; the
            # real run's center picks are unaffected).  Its rounds go back
            # to the real wave, which dispatches them if nothing changed.
            est = coord.sched.estimate_finish_s(reqs)
            self._eta, self._repl = est.finish_s, est.replacement_of
        ops = self.gen.ops()
        engine = BatchRepairEngine(coord.code, cache=coord.plan_cache, obs=obs)
        gateways = self._gateways()
        bus_before = coord.bus.total_bytes()
        fg_tasks: list = []
        #: the run's read template (see _read_plan): a landed write drops its
        #: object's entry; gone when the loop ends
        template: dict = {}
        records: list[dict] = []
        fg_bytes = 0
        root = None
        if obs is not None:
            root = obs.tracer.begin(
                "workload.run", actor="serving", cat="workload",
                ops=len(ops), objects=spec.n_objects, seed=spec.seed,
            )
        try:
            for op in ops:
                prefix = f"fg:{op.op_id}:"
                gw = gateways[op.op_id % len(gateways)]
                fg_tasks.append(DelayTask(f"{prefix}arr", op.t_s, tag="fg"))
                rec = {
                    "op": op, "ok": True, "degraded_stripes": 0,
                    "fast_stripes": 0, "chunk_plans": [],
                    "nbytes": 0, "digest": "", "error": "",
                }
                span = None
                if obs is not None:
                    span = obs.tracer.begin(
                        f"workload.op:{op.op_id}", actor="serving",
                        cat="workload", op=op.op_id, kind=op.kind, obj=op.obj,
                    )
                try:
                    if op.kind == "read":
                        try:
                            payload, stats = self._read_plan(
                                op.obj, gw, engine, template, fg_tasks, prefix,
                                arrival_s=op.t_s,
                            )
                        except StripeUnrecoverable as err:
                            rec["ok"] = False
                            rec["error"] = f"{type(err).__name__}: {err}"
                        else:
                            if payload is not None:  # the object's first read
                                template[op.obj] = (
                                    len(payload),
                                    hashlib.sha256(payload).hexdigest(),
                                )
                            rec["degraded_stripes"] = stats["degraded"]
                            rec["fast_stripes"] = stats["fast"]
                            rec["chunk_plans"] = stats["chunk_plans"]
                            rec["nbytes"], rec["digest"] = template[op.obj]
                            fg_bytes += stats["metered"]
                    else:
                        ok, metered = self._write_plan(op, template, fg_tasks, prefix)
                        rec["ok"] = ok
                        rec["nbytes"] = op.nbytes if ok else 0
                        if not ok:
                            rec["error"] = "write touched a dead data node"
                        fg_bytes += metered
                finally:
                    if span is not None:
                        obs.tracer.end(
                            span, ok=rec["ok"],
                            degraded=rec["degraded_stripes"] > 0,
                        )
                records.append(rec)

            # the timing plane: every foreground task and every storm job
            # through one merged scheduler pass
            report = coord.sched.run_requests(
                reqs, network=self.network, foreground=tuple(fg_tasks), eta=est
            )
        finally:
            if root is not None:
                obs.tracer.unwind(root)
        return self._assemble(records, report, fg_bytes, bus_before)

    def _assemble(self, records, report, fg_bytes, bus_before) -> ServeResult:
        """Resolve per-op finishes from the merged sim and summarize."""
        coord = self.coord
        obs = coord.obs
        fin = report.foreground_finish_s
        # latest finish per op, bucketed in one pass: ids are ``fg:<op_id>:...``
        last_finish: dict[int, float] = {}
        for tid, t in fin.items():
            op_id = int(tid.split(":", 2)[1])
            last_finish[op_id] = max(last_finish.get(op_id, t), t)
        outcomes: list[OpOutcome] = []
        for rec in records:
            op = rec["op"]
            # clamped at t_s: the sim's arrival-task finish can drift a
            # last ulp below the exact arrival time it was given.
            finish = max(last_finish.get(op.op_id, op.t_s), op.t_s)
            outcomes.append(
                OpOutcome(
                    op_id=op.op_id, kind=op.kind, obj=op.obj, t_s=op.t_s,
                    ok=rec["ok"], degraded=rec["degraded_stripes"] > 0,
                    degraded_stripes=rec["degraded_stripes"],
                    nbytes=rec["nbytes"], digest=rec["digest"],
                    finish_s=finish, latency_s=max(finish - op.t_s, 0.0),
                    error=rec["error"],
                    fast_stripes=rec.get("fast_stripes", 0),
                )
            )
        # Replay every degraded stripe's per-chunk (ready, cost) pairs
        # through the single decode lane: the saving is how much earlier
        # the chained decode finished than the barrier would have.
        pipeline_saved = 0.0
        chunk_rows = []
        for rec in records:
            op = rec["op"]
            for plan in rec.get("chunk_plans", ()):
                ready = [
                    max(
                        max((fin[f] for f in ids if f in fin), default=op.t_s),
                        op.t_s,
                    )
                    for ids in plan.flow_ids
                ]
                pipeline_saved += read_pipeline_saved_s(ready, plan.cost_s)
                chunk_rows.append((op, plan))
        reads = [o for o in outcomes if o.kind == "read"]
        done = [o for o in reads if o.ok]
        degraded = [o for o in done if o.degraded]
        healthy = [o for o in done if not o.degraded]
        writes = [o for o in outcomes if o.kind == "write"]
        result = ServeResult(
            spec=self.spec,
            outcomes=outcomes,
            latency=latency_summary(o.latency_s for o in done),
            latency_healthy=latency_summary(o.latency_s for o in healthy),
            latency_degraded=latency_summary(o.latency_s for o in degraded),
            reads=len(done),
            degraded_reads=len(degraded),
            failed_reads=len(reads) - len(done),
            writes=sum(1 for o in writes if o.ok),
            failed_writes=sum(1 for o in writes if not o.ok),
            foreground_bytes=fg_bytes,
            bus_bytes_delta=coord.bus.total_bytes() - bus_before,
            makespan_s=report.makespan_s,
            repair=report,
            plan_cache_stats=coord.plan_cache.stats(),
            fast_path_reads=sum(1 for o in outcomes if o.fast_stripes > 0),
            pipeline_saved_s=pipeline_saved,
            chunks=self.chunks,
        )
        if obs is not None:
            for o in outcomes:
                obs.tracer.add(
                    f"workload.op:{o.op_id}", actor="client", cat="workload.sim",
                    t0=o.t_s, t1=max(o.finish_s, o.t_s),
                    op=o.op_id, kind=o.kind, ok=o.ok, degraded=o.degraded,
                )
            for op, plan in chunk_rows:
                # sim-domain twin of the ops-domain workload.chunk spans:
                # each chunk's decode occupancy on the gateway's lane.
                for i, dec_id in enumerate(plan.dec_ids):
                    t1 = fin.get(dec_id)
                    if t1 is None:
                        continue
                    obs.tracer.add(
                        f"workload.chunk:{op.op_id}:{plan.sid}:{i}",
                        actor="serving", cat="workload.sim",
                        t0=max(t1 - plan.cost_s[i], op.t_s), t1=t1,
                        op=op.op_id, stripe=plan.sid, chunk=i,
                    )
            m = obs.metrics
            m.counter("workload.ops").inc(len(outcomes))
            m.counter("workload.reads").inc(len(done))
            m.counter("workload.degraded_reads").inc(len(degraded))
            m.counter("workload.fast_path_reads").inc(result.fast_path_reads)
            m.counter("workload.pipeline_saved_s").inc(pipeline_saved)
            m.gauge("workload.chunks").set(self.chunks)
            m.counter("workload.unrecoverable").inc(result.failed_reads)
            m.counter("workload.writes").inc(result.writes)
            m.counter("workload.failed_writes").inc(result.failed_writes)
            m.counter("workload.read_bytes").inc(sum(o.nbytes for o in done))
            m.counter("workload.foreground_bytes").inc(fg_bytes)
            for o in done:
                m.histogram("workload.read_latency_s").observe(o.latency_s)
            for o in degraded:
                m.histogram("workload.degraded_read_latency_s").observe(o.latency_s)
        return result
