"""Rack-aware CR, tree-pipelined IR, and rack-aware HMBR tests."""

import numpy as np
import pytest

from repro.repair.centralized import plan_centralized
from repro.system.executor import PlanExecutor
from repro.repair.hybrid import plan_hybrid
from repro.repair.rackaware import (
    _build_repair_tree,
    _LinkUsageTracker as LinkUsageTracker,
    plan_rack_aware_centralized,
    plan_rack_aware_hybrid,
    plan_tree_independent,
)
from repro.simnet.fluid import FluidSimulator
from tests.conftest import make_repair_ctx


def rack_ctx(k=8, m=4, f=2, rack_size=4, cross=25.0, **kw):
    return make_repair_ctx(
        k=k, m=m, f=f, rack_size=rack_size, cross=cross,
        uplinks=[100.0] * (k + m + f), **kw
    )


def verify(ctx, plan, stripe_data, seed=0):
    full, ws = stripe_data(ctx, seed=seed)
    PlanExecutor(ws).execute(plan, verify_against={b: full[b] for b in ctx.failed_blocks})


# ------------------------------------------------------------------ #
# rack-aware CR
# ------------------------------------------------------------------ #
def test_rack_cr_reduces_cross_traffic_fig4(stripe_data):
    """Figure 4's point: 8 cross blocks (plain CR) vs ~f per rack (rack CR)."""
    ctx = rack_ctx(k=8, m=4, f=2)
    sim = FluidSimulator(ctx.cluster)
    plain = sim.run(plan_centralized(ctx).tasks)
    rack = sim.run(plan_rack_aware_centralized(ctx).tasks)
    assert rack.cross_rack_mb < plain.cross_rack_mb
    verify(ctx, plan_rack_aware_centralized(ctx), stripe_data)


def test_rack_cr_paper_policy_cross_traffic_count():
    """Paper policy: every survivor rack ships exactly f intermediates."""
    ctx = rack_ctx(k=8, m=4, f=2)
    plan = plan_rack_aware_centralized(ctx, intermediate_policy="paper")
    res = FluidSimulator(ctx.cluster).run(plan.tasks)
    # survivors: blocks 0..7 + parity 8,9 -> nodes 0..9 in racks {0,1,2};
    # center (new node) is in rack 3, dist target too. cross = racks*f + dist
    survivor_racks = {ctx.cluster.rack_of(n) for n in ctx.survivor_nodes()}
    center_rack = ctx.cluster.rack_of(plan.meta["center"])
    expected = sum(
        ctx.f for r in survivor_racks if r != center_rack
    ) + sum(ctx.f for r in survivor_racks if r == center_rack) * 0
    # distribution hop may or may not cross; just bound it
    assert res.cross_rack_mb >= expected * ctx.block_size_mb - 1e-6


def test_rack_cr_adaptive_policy_never_ships_more_than_raw(stripe_data):
    ctx = rack_ctx(k=8, m=4, f=4)  # f >= rack survivor counts
    paper = plan_rack_aware_centralized(ctx, intermediate_policy="paper")
    adaptive = plan_rack_aware_centralized(ctx, intermediate_policy="adaptive")
    assert adaptive.total_transfer_mb() <= paper.total_transfer_mb() + 1e-9
    verify(ctx, adaptive, stripe_data, seed=2)
    verify(ctx, paper, stripe_data, seed=2)


def test_rack_cr_single_survivor_rack(stripe_data):
    """A rack holding a single survivor still repairs correctly."""
    ctx = make_repair_ctx(k=3, m=2, f=2, rack_size=2, cross=25.0,
                          uplinks=[100.0] * 7)
    plan = plan_rack_aware_centralized(ctx)
    verify(ctx, plan, stripe_data, seed=3)


# ------------------------------------------------------------------ #
# tree-pipelined IR
# ------------------------------------------------------------------ #
def test_tree_builder_respects_max_children():
    ctx = rack_ctx(k=8, m=4, f=1)
    tracker = LinkUsageTracker()
    parent = _build_repair_tree(
        ctx, root=ctx.new_nodes[0], survivors_nodes=ctx.survivor_nodes(), tracker=tracker,
    )
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    assert all(len(v) <= 2 for v in children.values())
    assert len(parent) == ctx.k  # spanning: every survivor attached


def test_tree_builder_spreads_links_across_jobs():
    """Two jobs must not reuse the same directed links when alternatives exist."""
    ctx = rack_ctx(k=8, m=4, f=2)
    tracker = LinkUsageTracker()
    edges = []
    for fb in ctx.failed_blocks:
        parent = _build_repair_tree(
            ctx, ctx.new_node_of(fb), ctx.survivor_nodes(), tracker
        )
        edges.append(set(parent.items()))
    # overlap far below full reuse (identical chains would overlap completely)
    overlap = len(edges[0] & edges[1])
    assert overlap < len(edges[0]) / 2


def test_tree_ir_repairs_real_bytes(stripe_data):
    ctx = rack_ctx(k=8, m=4, f=3)
    plan = plan_tree_independent(ctx)
    verify(ctx, plan, stripe_data, seed=4)


def test_tree_ir_less_congested_than_chain_ir_under_racks():
    """Figure 5's point: trees spread load over links that chains share."""
    from repro.repair.independent import plan_independent

    ctx = rack_ctx(k=8, m=4, f=2)
    sim = FluidSimulator(ctx.cluster)
    chain = sim.run(plan_independent(ctx).tasks).makespan
    tree = sim.run(plan_tree_independent(ctx).tasks).makespan
    assert tree <= chain + 1e-9


def test_link_usage_tracker_counts():
    t = LinkUsageTracker()
    assert t.usage(1, 2) == 0
    t.use(1, 2, cross=True)
    t.use(1, 2, cross=True)
    t.use(1, 3, cross=False)
    assert t.usage(1, 2) == 2
    assert t.nic_load(1, 9, cross=True) == 2  # node 1 sent 2 cross
    assert t.nic_load(9, 2, cross=True) == 2  # node 2 received 2 cross
    assert t.nic_load(1, 9, cross=False) == 1


# ------------------------------------------------------------------ #
# rack-aware HMBR
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("p", [None, 1.0], ids=["search", "all-cr"])
def test_rack_hybrid_repairs_real_bytes(stripe_data, p):
    """At the searched split, and at the degenerate one whose tree-IR part
    is empty."""
    ctx = rack_ctx(k=8, m=4, f=2)
    plan = plan_rack_aware_hybrid(ctx, p=p)
    verify(ctx, plan, stripe_data, seed=5)
    assert 0.0 <= plan.meta["p0"] <= 1.0
    assert plan.meta["split"] == ("search" if p is None else "override")


def test_rack_hybrid_beats_plain_hybrid_with_capped_cross(stripe_data):
    ctx = rack_ctx(k=16, m=4, f=2, rack_size=4)
    sim = FluidSimulator(ctx.cluster)
    plain = sim.run(plan_hybrid(ctx).tasks).makespan
    rack = sim.run(plan_rack_aware_hybrid(ctx).tasks).makespan
    assert rack <= plain + 1e-9


def test_rack_hybrid_invalid_split(stripe_data):
    """A split ratio outside [0, 1] leaves one half an empty fraction range."""
    ctx = rack_ctx()
    for p in (-0.25, 1.5):
        with pytest.raises(ValueError, match="empty fraction range"):
            plan_rack_aware_hybrid(ctx, p=p)


def test_rack_hybrid_explicit_p(stripe_data):
    ctx = rack_ctx()
    plan = plan_rack_aware_hybrid(ctx, p=0.25)
    assert plan.meta["p0"] == 0.25
    verify(ctx, plan, stripe_data, seed=6)
