"""The one repair-round planner (Figure 7, §IV-C), pure of any data plane.

Every repair route — a healthy round, the metadata-only fast path, a
scheduler job, the fault runtime and the adaptive runtime — plans through
:func:`plan_round`: lost-block report → one spare per dead node →
LFS/LRS center per stripe → one HMBR split per stripe, from the round's
volume LP (:mod:`repro.repair.split`) → per-stripe plan → task-graph
check.  Nothing here touches a block byte, an agent or the bus,
nor builds the ops that would (:mod:`repro.repair.plan`); the inputs are
the stripe table, the cluster's bandwidth view and the stateful center
scheduler, the output a :class:`RoundPlan`.

:data:`SCHEMES` is the public scheme registry.  Its planners are looked
up through this module's globals at call time, so rebinding
``repro.repair.planner.plan_hybrid`` (a profiler, a test double) takes
effect without touching the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.repair.centralized import plan_centralized
from repro.repair.context import RepairContext
from repro.repair.hybrid import plan_hybrid, whole_block
from repro.repair.independent import plan_independent
from repro.repair.mlf import plan_mlf
from repro.repair.plan import RepairPlan
from repro.repair.rackaware import plan_rack_aware_hybrid
from repro.repair.selector import choose_scheme
from repro.repair.split import search_split
from repro.repair.validate import _check_task_graph_acyclic
from repro.simnet.fluid import SimulationResult

#: scheme name -> ``planner(ctx, center)``; ``"auto"`` scores every
#: candidate per stripe in the simulator and picks the fastest.
SCHEMES = {
    "cr": lambda ctx, center: plan_centralized(ctx, center=center),
    "ir": lambda ctx, center: plan_independent(ctx),
    "hmbr": lambda ctx, center: plan_hybrid(ctx, center=center),
    "mlf": lambda ctx, center: plan_mlf(ctx),
    "rack-hmbr": lambda ctx, center: plan_rack_aware_hybrid(ctx, center=center),
    "auto": lambda ctx, center: choose_scheme(ctx).plan,
}

#: schemes the adaptive re-planner can decompose and re-solve.
ADAPTIVE_SCHEMES = ("cr", "ir", "hmbr", "mlf")


def check_scheme(scheme: str, allowed=SCHEMES) -> None:
    """Raise the one unknown-scheme ``ValueError`` every route uses."""
    if scheme not in allowed:
        raise ValueError(
            f"unknown scheme {scheme!r}; choose from {sorted(allowed)}"
        )


@dataclass
class RoundPlan:
    """One planned repair round: what is lost, where it lands, and how."""

    #: stripe id -> failed block indices.
    affected: dict[int, list[int]]
    #: dead node -> the spare its lost blocks rebuild onto.
    replacement_of: dict[int, int]
    #: (stripe id, context, CR center) in planning (= sorted id) order.
    work: list[tuple[int, RepairContext, int]]
    #: stripe id -> its HMBR split ratio, chosen over the whole round
    #: (``None``: each stripe's planner splits it alone).
    split: dict[int, float] | None = None
    #: (stripe id, plan) in planning order.
    plans: list[tuple[int, RepairPlan]] = field(default_factory=list)
    #: the split search's kept run: the plans' timing on a quiet network.
    timing: SimulationResult | None = None

    @property
    def tasks(self) -> list:
        """Every plan's flow tasks, merged for one fluid simulation."""
        return [t for _, plan in self.plans for t in plan.tasks]

    def p_of(self, sid: int) -> float | None:
        """Stripe ``sid``'s round split, for :func:`plan_stripe`."""
        return None if self.split is None else self.split[sid]


def dead_hosts(layout, affected: dict[int, list[int]]) -> list[int]:
    """Dead nodes that actually held blocks of the affected stripes."""
    return sorted(
        {layout[sid].placement[b] for sid, blocks in affected.items() for b in blocks}
    )


def assign_spares(cluster, dead_nodes, free_spares, shared=None) -> dict[int, int]:
    """Match each dead node to a replacement spare.

    Preference order: a spare in the dead node's rack (preserves
    rack-aware placement invariants), then the spare with the fastest
    downlink (it is about to receive every repaired block).  Greedy in
    dead-node order, which is deterministic.  ``shared`` holds
    assignments other rounds of the same wave already made: those dead
    nodes keep their spare and those spares are off the table.
    """
    shared = shared or {}
    need = [d for d in dead_nodes if d not in shared]
    taken = set(shared.values())
    remaining = [s for s in free_spares if s not in taken]
    if len(need) > len(remaining):
        raise RuntimeError(
            f"{len(need)} dead nodes but only {len(remaining)} free spares"
        )
    out = {d: shared[d] for d in dead_nodes if d in shared}
    for dead in need:
        rack = cluster[dead].rack
        same_rack = [s for s in remaining if cluster[s].rack == rack]
        pool = same_rack if same_rack else remaining
        pick = max(pool, key=lambda s: (cluster[s].downlink, -s))
        out[dead] = pick
        remaining.remove(pick)
    return out


def round_split(cluster, work) -> tuple:
    """Each stripe's HMBR split in a round (§IV-C), ``(stripe id -> p,
    the kept run)``, chosen over the merged whole-block task graph (a
    stripe's own search ignores the stripes sharing its links), never worse
    than the paper's one common p; ``(None, None)`` for fewer than two
    stripes.  The builds stay on the contexts for :func:`plan_stripe` to
    re-fraction at each stripe's p."""
    if len(work) < 2:
        return None, None
    builds = [whole_block(ctx, center, keep=True) for _, ctx, center in work]
    cr_all = [t for (cr, _, _), _ in builds for t in cr]
    ir_all = [t for _, (ir, _, _) in builds for t in ir]
    stripe_of = [i for part in (0, 1) for i, b in enumerate(builds) for _ in b[part][0]]
    splits, run = search_split(cr_all, ir_all, cluster, stripe_of=stripe_of)
    return {sid: float(p) for (sid, _, _), p in zip(work, splits)}, run


def plan_stripe(ctx, center, scheme: str, p: float | None = None) -> RepairPlan:
    """Run ``scheme``'s planner on one stripe (HMBR at split ``p`` when
    given) and check its task graph (the byte view is validated in full
    when first read)."""
    if scheme == "hmbr" and p is not None:
        plan = plan_hybrid(ctx, center=center, p=p)
    else:
        plan = SCHEMES[scheme](ctx, center)
    _check_task_graph_acyclic(plan)
    if plan._lowering is not None:  # its build need not check the graph again
        plan.ops = replace(plan._lowering, graph_checked=True)
    return plan


def plan_round(
    layout,
    cluster,
    code,
    centers,
    scheme: str,
    affected: dict[int, list[int]],
    *,
    block_size_mb: float,
    free_spares=(),
    replacement_of: dict[int, int] | None = None,
    lazy: bool = False,
) -> RoundPlan:
    """Plan one repair round over the ``affected`` stripes.

    ``layout`` is the stripe table, ``centers`` the stateful LFS/LRS
    :class:`~repro.repair.multinode.CenterScheduler` (advanced by one
    pick per stripe; ``None`` = each stripe's fastest-downlink new node,
    exp5's unscheduled baseline).  Spares come from ``free_spares`` unless
    the caller already holds a ``replacement_of`` map (a scheduler wave
    sharing spares between jobs).  ``lazy`` stops short of the per-stripe
    planners and leaves :attr:`RoundPlan.plans` for the caller to fill
    through :func:`plan_stripe` as late as possible (the fault runtime:
    helpers can die between two stripes of one round).  Raises
    ``ValueError`` on an unknown scheme or an unplannable stripe and
    ``RuntimeError`` when spares run out.
    """
    check_scheme(scheme)
    if replacement_of is None:
        replacement_of = assign_spares(
            cluster, dead_hosts(layout, affected), free_spares
        )
    # Stripes are visited in sorted id order so the stateful center
    # scheduler makes the same picks for the same failure set on every route.
    work = []
    for sid, failed in sorted(affected.items()):
        stripe = layout[sid]
        new_nodes = [replacement_of[stripe.placement[b]] for b in failed]
        ctx = RepairContext(
            cluster=cluster,
            code=code,
            stripe=stripe,
            failed_blocks=failed,
            new_nodes=new_nodes,
            block_size_mb=block_size_mb,
        )
        center = centers.pick(new_nodes) if centers is not None else ctx.pick_center()
        work.append((sid, ctx, center))
    split, run = round_split(cluster, work) if scheme == "hmbr" else (None, None)
    rnd = RoundPlan(affected, replacement_of, work, split)
    if not lazy:  # a lazy stripe's plan may differ from the one the run timed
        rnd.plans = [
            (sid, plan_stripe(ctx, center, scheme, rnd.p_of(sid)))
            for sid, ctx, center in work
        ]
        rnd.timing = run
    return rnd
