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
from repro.repair.context import RepairContext
from repro.repair.plan import RepairPlan, merge_plans
from repro.repair.planner import check_scheme, common_split, plan_stripe


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
    #: erasure pattern (a :class:`repro.repair.batch.PatternKey`) when the
    #: repair was planned with ``group_patterns=True``; ``None`` otherwise.
    pattern: object = None


def plan_multi_node(
    cluster: Cluster,
    code: RSCode,
    layout: StripeLayout,
    dead_nodes: list[int],
    replacement_of: dict[int, int],
    block_size_mb: float = 64.0,
    scheme: str = "hmbr",
    enhanced: bool = True,
    survivor_policy: str = "first",
    split: str = "global-search",
    group_patterns: bool = False,
    plan_cache=None,
) -> tuple[RepairPlan, list[MultiNodeRepairJob]]:
    """Plan the repair of every stripe hit by ``dead_nodes``.

    ``replacement_of`` maps each dead node to the fresh node that re-hosts
    its blocks.  With ``enhanced=True`` centers are spread via LFS+LRS; the
    baseline always lets each stripe pick its fastest-downlink new node
    (which concentrates stripes on the same center and congests it).

    With ``group_patterns=True`` stripes are bucketed by erasure pattern
    (code params + surviving-helper set + failed set) *before* center
    scheduling, so LFS+LRS walks pattern groups rather than individual
    stripes and the batched data plane can decode each group with one
    stacked kernel.  Jobs then carry their
    :class:`~repro.repair.batch.PatternKey` and the merged plan's meta
    gains ``pattern_groups``.  A :class:`~repro.repair.batch.PlanCache`
    passed as ``plan_cache`` is warmed with one decode plan per group
    (its accounting lands in ``merged.meta["plan_cache"]``).

    For ``scheme="hmbr"``, ``split`` controls the CR/IR ratio:

    * ``"global-search"`` (default) — one common p chosen by simulating the
      *merged* task graph of every stripe.  Per-stripe isolated splits are
      badly miscalibrated during multi-node repair because they ignore the
      other stripes contending for the same survivor uplinks.
    * ``"per-stripe"`` — each stripe searches its own p in isolation (shown
      as an ablation; loses to global-search under heavy overlap).

    Returns the merged plan (all stripes repaired in parallel) and the
    per-stripe jobs.
    """
    check_scheme(scheme, ("cr", "ir", "hmbr"))
    dead = set(dead_nodes)
    missing = dead - set(replacement_of)
    if missing:
        raise ValueError(f"no replacement for dead nodes {sorted(missing)}")
    scheduler = CenterScheduler()
    contexts: list[RepairContext] = []
    for stripe in layout:
        failed = stripe.failed_blocks(dead)
        if not failed:
            continue
        if len(failed) > code.m:
            raise ValueError(f"stripe {stripe.stripe_id} lost {len(failed)} > m blocks")
        new_nodes = [replacement_of[stripe.placement[b]] for b in failed]
        contexts.append(
            RepairContext(
                cluster=cluster,
                code=code,
                stripe=stripe,
                failed_blocks=failed,
                new_nodes=new_nodes,
                block_size_mb=block_size_mb,
                survivor_policy=survivor_policy,
            )
        )
    if not contexts:
        raise ValueError("no stripe was affected by the given dead nodes")

    pattern_of: dict[int, object] = {}
    pattern_groups_meta: list[dict] = []
    if group_patterns:
        from repro.repair.batch import pattern_key

        # Bucket stripes by erasure pattern (first-occurrence order), then
        # schedule group-major: LFS+LRS walks whole pattern groups, keeping
        # each group's stripes adjacent for the batched data plane.
        buckets: dict[object, list[RepairContext]] = {}
        order: list[object] = []
        for ctx in contexts:
            key = pattern_key(code, ctx.chosen_survivors(), ctx.failed_blocks)
            pattern_of[ctx.stripe.stripe_id] = key
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append(ctx)
        contexts = [ctx for key in order for ctx in buckets[key]]
        for key in order:
            pattern_groups_meta.append(
                {
                    "survivors": list(key.survivors),
                    "failed": list(key.failed),
                    "stripes": [c.stripe.stripe_id for c in buckets[key]],
                }
            )
            if plan_cache is not None:
                plan_cache.plan_for(code, key.survivors, key.failed)

    work: list[tuple[RepairContext, int]] = []
    for ctx in contexts:
        center = (
            scheduler.pick(ctx.new_nodes)
            if enhanced
            else ctx.pick_center("fastest-downlink")
        )
        work.append((ctx, center))

    common_p: float | None = None
    if scheme == "hmbr" and split == "global-search":
        common_p = common_split(
            cluster, [(ctx.stripe.stripe_id, ctx, center) for ctx, center in work]
        )

    plans: list[RepairPlan] = []
    jobs: list[MultiNodeRepairJob] = []
    for ctx, center in work:
        plan = plan_stripe(ctx, center, scheme, common_p)
        plans.append(plan)
        jobs.append(
            MultiNodeRepairJob(
                stripe_id=ctx.stripe.stripe_id,
                failed_blocks=ctx.failed_blocks,
                new_nodes=ctx.new_nodes,
                center=center,
                plan=plan,
                pattern=pattern_of.get(ctx.stripe.stripe_id),
            )
        )
    merged = merge_plans(plans, scheme=f"multi-node/{scheme}{'+sched' if enhanced else ''}")
    merged.meta["common_p"] = common_p
    if group_patterns:
        merged.meta["pattern_groups"] = pattern_groups_meta
        if plan_cache is not None:
            merged.meta["plan_cache"] = plan_cache.stats()
    return merged, jobs
