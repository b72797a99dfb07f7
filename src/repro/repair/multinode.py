"""Multi-node repair (§IV-C): scheduling multi-block repairs across stripes.

When whole nodes fail, many stripes need multi-block repair at once.  Each
stripe's CR part needs a center; naive center selection piles multiple
stripes onto the same well-provisioned new node.  HMBR's enhancement picks
centers with **LFS + LRS**: among the new-node candidates with the *least
frequently selected* count, pick the *least recently selected* one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import StripeLayout
from repro.repair.plan import RepairPlan, merge_plans
from repro.repair.planner import check_scheme, plan_round, plan_stripe


class CenterScheduler:
    """LFS + LRS new-node selection (the paper's §IV-C array + priority queue).

    ``counts`` is the frequency array; a heap keyed by (last-selected
    timestamp, node id) supplies the least-recently-selected tie-break.
    """

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.last_selected: dict[int, int] = {}
        self._clock = 0

    def pick(self, candidates: list[int]) -> int:
        if not candidates:
            raise ValueError("no center candidates")
        # LFS first
        min_count = min(self.counts.get(c, 0) for c in candidates)
        lfs = [c for c in candidates if self.counts.get(c, 0) == min_count]
        # LRS among ties (never-selected nodes are the "oldest")
        heap = [(self.last_selected.get(c, -1), c) for c in lfs]
        heapq.heapify(heap)
        _, chosen = heap[0]
        self._clock += 1
        self.counts[chosen] = self.counts.get(chosen, 0) + 1
        self.last_selected[chosen] = self._clock
        return chosen

    def load_of(self, node: int) -> int:
        return self.counts.get(node, 0)

    def snapshot(self) -> tuple:
        """Opaque copy of the LFS/LRS state, for planning-only callers.

        Planning-only paths (:meth:`RepairScheduler.estimate_finish_s
        <repro.sched.scheduler.RepairScheduler.estimate_finish_s>`,
        :meth:`Coordinator.plan_repair
        <repro.system.coordinator.Coordinator.plan_repair>` with
        ``commit=False``) must make the same picks a later real repair will,
        without advancing the scheduler — they snapshot first and
        :meth:`restore` after.
        """
        return (dict(self.counts), dict(self.last_selected), self._clock)

    def restore(self, snap: tuple) -> None:
        """Undo every :meth:`pick` made since the matching :meth:`snapshot`."""
        counts, last_selected, clock = snap
        self.counts = dict(counts)
        self.last_selected = dict(last_selected)
        self._clock = clock


@dataclass
class MultiNodeRepairJob:
    """One stripe's share of a multi-node repair."""

    stripe_id: int
    failed_blocks: list[int]
    new_nodes: list[int]
    center: int
    plan: RepairPlan = field(repr=False, default=None)


def plan_multi_node(
    cluster: Cluster,
    code: RSCode,
    layout: StripeLayout,
    dead_nodes: list[int],
    replacement_of: dict[int, int],
    block_size_mb: float = 64.0,
    scheme: str = "hmbr",
    enhanced: bool = True,
    split: str = "global-search",
) -> tuple[RepairPlan, list[MultiNodeRepairJob]]:
    """Plan the repair of every stripe hit by ``dead_nodes``: exp5's variants
    of the one round planner, :func:`repro.repair.planner.plan_round`.

    ``replacement_of`` maps each dead node to the fresh node that re-hosts
    its blocks.  With ``enhanced=True`` centers are spread via LFS+LRS; the
    baseline always lets each stripe pick its fastest-downlink new node
    (which concentrates stripes on the same center and congests it).

    For ``scheme="hmbr"``, ``split`` controls the CR/IR ratio:

    * ``"global-search"`` (default) — each stripe's p chosen over the
      *merged* task graph of every stripe: the round's volume LP, kept when
      one fluid run beats every common p's volume bound, else the paper's
      common-p search (:mod:`repro.repair.split`).  Isolated splits are
      badly miscalibrated during multi-node repair because they ignore the
      other stripes contending for the same survivor uplinks.
    * ``"per-stripe"`` — each stripe searches its own p in isolation (shown
      as an ablation; loses to global-search under heavy overlap).

    Returns the merged plan (all stripes repaired in parallel) and the
    per-stripe jobs.
    """
    check_scheme(scheme, ("cr", "ir", "hmbr"))
    missing = set(dead_nodes) - set(replacement_of)
    if missing:
        raise ValueError(f"no replacement for dead nodes {sorted(missing)}")
    affected = layout.stripes_with_failures(set(dead_nodes))
    if not affected:
        raise ValueError("no stripe was affected by the given dead nodes")
    # a lazy round reads its scheme only to decide whether to split over
    # the round, which the per-stripe ablation must not pay for
    rnd = plan_round(
        layout, cluster, code, CenterScheduler() if enhanced else None,
        scheme if split == "global-search" else "cr", affected,
        block_size_mb=block_size_mb, replacement_of=replacement_of, lazy=True,
    )
    jobs = [
        MultiNodeRepairJob(
            stripe_id=sid,
            failed_blocks=ctx.failed_blocks,
            new_nodes=ctx.new_nodes,
            center=center,
            plan=plan_stripe(ctx, center, scheme, rnd.p_of(sid)),
        )
        for sid, ctx, center in rnd.work
    ]
    merged = merge_plans(
        [j.plan for j in jobs], scheme=f"multi-node/{scheme}{'+sched' if enhanced else ''}"
    )
    merged.meta["split"] = rnd.split
    return merged, jobs
