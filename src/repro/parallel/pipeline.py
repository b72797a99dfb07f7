"""Chunk-level decode pipelining against simulated transfer completion.

The serial data plane is a *wave barrier*: every stripe's survivor flows
must finish (simulated time) before any decode output is considered
available, and decode itself runs as one block of compute.  The paper's
HMBR lineage (ECPipe's chunk pipelining, RepairBoost's repair-traffic
scheduling) argues for overlapping those phases instead: a stripe whose
CR/IR flows land early can decode while its wave-mates are still
transferring.

:func:`pipeline_schedule` is the deterministic model of that overlap — a
greedy earliest-free-lane list scheduler in *simulated seconds*.  Each item
(one stripe's decode) becomes ready when its flows finish in the fluid
simulation and costs its measured GF time rescaled to the modeled block
size; lanes are the pool's workers.  The result reports when each stripe's
repaired sub-blocks *land* under pipelining versus under the wave barrier,
which is exactly the number the coordinator attaches to a parallel
:class:`~repro.system.request.RepairResult` and exports as sim-domain
``parallel.decode`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineSlot:
    """One item's place in the pipelined decode schedule."""

    #: caller-side index (the coordinator uses the stripe id).
    item: int
    #: simulated instant the item's input flows completed.
    ready_s: float
    #: modeled decode cost in simulated seconds.
    cost_s: float
    #: when a lane picked the item up (>= ready_s).
    start_s: float
    #: when the repaired sub-blocks land.
    done_s: float
    #: which worker lane ran it.
    lane: int


@dataclass(frozen=True)
class PipelineReport:
    """The pipelined-vs-barrier comparison for one parallel dispatch."""

    slots: tuple[PipelineSlot, ...]
    workers: int
    #: last pipelined landing: decode overlapped with remaining transfers.
    makespan_s: float
    #: the serial-engine model: nothing decodes before the last flow lands.
    barrier_makespan_s: float

    @property
    def saved_s(self) -> float:
        """Simulated seconds the pipelining recovered from the barrier."""
        return max(self.barrier_makespan_s - self.makespan_s, 0.0)

    @property
    def landed_s(self) -> dict[int, float]:
        """Item -> pipelined landing instant."""
        return {s.item: s.done_s for s in self.slots}

    def __len__(self) -> int:
        return len(self.slots)


def pipeline_schedule(
    items: list[int],
    ready_s: list[float],
    cost_s: list[float],
    workers: int,
) -> PipelineReport:
    """List-schedule decode work over ``workers`` lanes as inputs land.

    Items are picked up in ready order (ties broken by caller order — the
    coordinator's sorted stripe ids — so the schedule is deterministic);
    each runs on the earliest-free lane no sooner than its ready time.  The
    barrier comparator schedules the *same* items on the same lanes but
    with every ready time clamped to the last one, which is what the
    non-pipelined engine effectively does.
    """
    if not (len(items) == len(ready_s) == len(cost_s)):
        raise ValueError("items, ready_s and cost_s must have equal length")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not items:
        return PipelineReport(slots=(), workers=workers, makespan_s=0.0,
                              barrier_makespan_s=0.0)
    for r, c in zip(ready_s, cost_s):
        if r < 0 or c < 0:
            raise ValueError("ready/cost times must be non-negative")

    def run(ready: list[float]) -> tuple[list[PipelineSlot], float]:
        order = sorted(range(len(items)), key=lambda i: (ready[i], i))
        lanes = [0.0] * workers
        slots: list[PipelineSlot] = [None] * len(items)  # type: ignore[list-item]
        for i in order:
            lane = min(range(workers), key=lambda L: (lanes[L], L))
            start = max(ready[i], lanes[lane])
            done = start + cost_s[i]
            lanes[lane] = done
            slots[i] = PipelineSlot(
                item=items[i], ready_s=ready[i], cost_s=cost_s[i],
                start_s=start, done_s=done, lane=lane,
            )
        return slots, max(s.done_s for s in slots)

    slots, makespan = run(list(ready_s))
    barrier = max(ready_s)
    _, barrier_makespan = run([barrier] * len(items))
    return PipelineReport(
        slots=tuple(slots),
        workers=workers,
        makespan_s=makespan,
        barrier_makespan_s=barrier_makespan,
    )


def repair_pipeline(
    ready_s: dict[int, float],
    cost_s: dict[int, float],
    workers: int,
    cost_scale: float = 1.0,
    tracer=None,
) -> PipelineReport:
    """Chunk-level pipelining of a repair round: decode stripes as they land.

    ``ready_s`` maps stripe id -> simulated transfer finish, ``cost_s``
    stripe id -> measured decode seconds (scaled by ``cost_scale`` to the
    modeled block size).  ``tracer`` (a :class:`repro.obs.Tracer`) gets one
    sim-domain ``parallel.decode`` span per stripe, so the pipelined
    landings show up on the trace timeline next to the flows that gated
    them.
    """
    sids = sorted(ready_s)
    pipeline = pipeline_schedule(
        sids,
        [ready_s[sid] for sid in sids],
        [cost_s.get(sid, 0.0) * cost_scale for sid in sids],
        workers,
    )
    if tracer is not None:
        for slot in pipeline.slots:
            tracer.add(
                f"parallel.decode:{slot.item}",
                actor=f"decode-lane{slot.lane}",
                cat="parallel.sim",
                t0=slot.start_s,
                t1=slot.done_s,
                stripe=slot.item,
                ready_s=slot.ready_s,
            )
    return pipeline
