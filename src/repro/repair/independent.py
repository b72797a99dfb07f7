"""Independent pipelined multi-block repair (IR, §II-D).

Each failed block gets its own chain-pipelined single-block repair (RP [16]):
the k survivors form a chain; every hop forwards the running GF-accumulated
partial sum in slices; the chain ends at the failed block's new node.  The f
chains run concurrently and do not cooperate, so every survivor uploads f
(sub-)blocks — the slowest survivor link becomes the bottleneck.
"""

from __future__ import annotations

from repro.repair._build import add_independent
from repro.repair.context import RepairContext
from repro.repair.plan import ByteLowering, RepairPlan
from repro.repair.topology import build_chain_paths


def plan_independent(ctx: RepairContext, chain_order: str = "index") -> RepairPlan:
    """Build the IR plan (``chain_order``: "index" or "uplink-desc")."""
    d = ctx.decisions()
    paths = build_chain_paths(ctx, chain_order, d)
    tasks, lower, outputs = add_independent(ctx, ctx.prefix("ir"), 0.0, 1.0, paths, d)
    return RepairPlan(
        scheme="IR",
        tasks=tasks,
        ops=ByteLowering(lambda: lower(0.0, 1.0), d),
        outputs=outputs,
        meta={
            "chain_order": chain_order,
            "paths": {b: list(p) for b, p in paths.items()},
            "survivors": list(d.survivors),
        },
    )
