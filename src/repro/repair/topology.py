"""Topology decisions shared by the model and the planners.

The analytical model (§III-B) and the executable planners must agree on the
*same* center node and pipeline paths, otherwise HMBR's p0 would be computed
for a different topology than the one executed.  All such decisions are made
here, once.
"""

from __future__ import annotations

from repro.repair.context import Decisions, RepairContext


def default_center(ctx: RepairContext, policy: str = "fastest-downlink") -> int:
    """CR center selection (a new node; see RepairContext.pick_center)."""
    return ctx.pick_center(policy)


def chain_survivor_order(ctx: RepairContext, order: str, d: Decisions) -> list[int]:
    """Order in which the survivors frozen in ``d`` appear on every IR chain.

    ``"index"`` — stripe/block-index order (what RP does by default);
    ``"uplink-desc"`` — fastest uploader first, so the slowest survivor sits
    next to the (well-provisioned) new node, a cheap heuristic ablated in the
    benchmarks.
    """
    nodes = [d.placement[b] for b in d.survivors]
    if order == "index":
        return nodes
    if order == "uplink-desc":
        return sorted(nodes, key=lambda n: (-ctx.cluster[n].uplink, n))
    raise ValueError(f"unknown chain order {order!r}")


def build_chain_paths(ctx: RepairContext, order: str, d: Decisions) -> dict[int, list[int]]:
    """One pipeline path per failed block: survivors (shared order) + new node."""
    base = chain_survivor_order(ctx, order, d)
    return {b: base + [ctx.new_node_of(b)] for b in ctx.failed_blocks}
