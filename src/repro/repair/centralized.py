"""Centralized multi-block repair (CR, §II-C).

The conventional scheme: k survivors send their blocks to one new node (the
*center*), which decodes all f failed blocks, keeps its own, and distributes
the remaining f-1 to the other new nodes.  The center's downlink is the
bottleneck for wide stripes.
"""

from __future__ import annotations

from repro.repair._build import add_centralized
from repro.repair.context import RepairContext
from repro.repair.plan import ByteLowering, RepairPlan
from repro.repair.topology import default_center


def plan_centralized(
    ctx: RepairContext,
    center: int | None = None,
    center_policy: str = "fastest-downlink",
) -> RepairPlan:
    """Build the CR plan.

    ``center`` may name an explicit new node; otherwise ``center_policy``
    decides (default: the new node with the fastest downlink).
    """
    if center is None:
        center = default_center(ctx, center_policy)
    elif center not in ctx.new_nodes:
        raise ValueError(f"center {center} is not one of the new nodes {ctx.new_nodes}")
    d = ctx.decisions()
    tasks, lower, outputs = add_centralized(ctx, ctx.prefix("cr"), 0.0, 1.0, center, d)
    return RepairPlan(
        scheme="CR",
        tasks=tasks,
        ops=ByteLowering(lambda: lower(0.0, 1.0), d),
        outputs=outputs,
        meta={"center": center, "survivors": list(d.survivors)},
    )
