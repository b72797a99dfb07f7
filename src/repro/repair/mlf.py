"""Multi-level forwarding repair (MLF) — the rapidly-changing-network scheme.

From "Multi-level Forwarding and Scheduling Recovery Algorithm in
Rapidly-changing Network for Erasure-coded Clusters" (PAPERS.md): instead of
CR's star (one hot downlink) or IR's chains (one long dependency path), the
survivors aggregate GF partials up a shallow shared tree.  Every tree edge
carries the f running partials once, so per-node upload is bounded by f·w
like IR, while the critical path is ``depth`` levels instead of ``k`` hops —
a shape that degrades gracefully when individual links suddenly slow down,
which is why the adaptive re-planner (:mod:`repro.adaptive`) keeps it in its
candidate set.
"""

from __future__ import annotations

from repro.repair._build import add_multilevel, mlf_children, mlf_degree
from repro.repair.context import RepairContext
from repro.repair.plan import ByteLowering, RepairPlan


def plan_mlf(
    ctx: RepairContext,
    center: int | None = None,
    degree: int | None = None,
    order: str = "uplink-desc",
) -> RepairPlan:
    """Build the MLF plan (aggregation tree over the chosen survivors).

    ``center`` is accepted for planner-registry compatibility and ignored:
    the aggregation root is a survivor (picked by ``order``), not a new
    node.  ``degree=None`` auto-picks ~sqrt(k) (:func:`mlf_degree`).
    """
    del center  # the tree root is a survivor, not a new-node center
    d = ctx.decisions()
    k = len(d.survivors)
    resolved_degree = mlf_degree(k, degree)
    tasks, lower, outputs = add_multilevel(
        ctx, ctx.prefix("mlf"), 0.0, 1.0, resolved_degree, order, d
    )
    depth = 0
    frontier = [0]
    children = mlf_children(k, resolved_degree)
    while frontier:
        nxt = [c for p in frontier for c in children[p]]
        if not nxt:
            break
        depth += 1
        frontier = nxt
    root = next(t.src for t in tasks if t.tag.endswith(":dist"))
    return RepairPlan(
        scheme="MLF",
        tasks=tasks,
        ops=ByteLowering(lambda: lower(0.0, 1.0), d),
        outputs=outputs,
        meta={
            "degree": resolved_degree,
            "depth": depth,
            "order": order,
            "root": root,
            "survivors": list(d.survivors),
        },
    )
