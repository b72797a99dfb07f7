"""CR / IR / HMBR planner tests: structure, simulated timing, data fidelity."""

import numpy as np
import pytest

from repro.repair.centralized import plan_centralized
from repro.system.executor import PlanExecutor
from repro.repair.hybrid import plan_hybrid
from repro.repair.independent import plan_independent
from repro.repair.model import repair_model
from repro.simnet.flows import Flow, PipelineFlow
from repro.simnet.fluid import FluidSimulator
from tests.conftest import make_repair_ctx


def run_and_verify(ctx, plan, stripe_data, seed=0):
    full, ws = stripe_data(ctx, seed=seed)
    report = PlanExecutor(ws).execute(
        plan, verify_against={b: full[b] for b in ctx.failed_blocks}
    )
    return report


# ------------------------------------------------------------------ #
# CR
# ------------------------------------------------------------------ #
def test_cr_plan_structure(fig2):
    plan = plan_centralized(fig2)
    fetches = [t for t in plan.tasks if isinstance(t, Flow) and ":fetch:" in t.task_id]
    dists = [t for t in plan.tasks if ":dist:" in t.task_id]
    assert len(fetches) == fig2.k
    assert len(dists) == fig2.f - 1
    assert all(t.dst == plan.meta["center"] for t in fetches)
    # distribution waits for the full download (decode needs all k blocks)
    assert set(dists[0].deps) == {t.task_id for t in fetches}


def test_cr_sim_matches_eq2(fig2):
    """On the Fig 2 topology the fluid simulator reproduces Equation (2)."""
    plan = plan_centralized(fig2)
    res = FluidSimulator(fig2.cluster).run(plan.tasks)
    assert res.makespan == pytest.approx(repair_model(fig2).t_cr)


def test_cr_explicit_center_validation(fig2):
    plan = plan_centralized(fig2, center=6)
    assert plan.meta["center"] == 6
    with pytest.raises(ValueError):
        plan_centralized(fig2, center=3)  # not a new node


def test_cr_repairs_real_bytes(fig2, stripe_data):
    plan = plan_centralized(fig2)
    report = run_and_verify(fig2, plan, stripe_data)
    # only the center computes in CR
    assert set(report.compute_seconds) == {plan.meta["center"]}


def test_cr_total_traffic(fig2):
    plan = plan_centralized(fig2)
    # k fetches + (f-1) distributions, one block each
    assert plan.total_transfer_mb() == pytest.approx((3 + 1) * 64.0)


# ------------------------------------------------------------------ #
# IR
# ------------------------------------------------------------------ #
def test_ir_plan_structure(fig2):
    plan = plan_independent(fig2)
    pipes = [t for t in plan.tasks if isinstance(t, PipelineFlow)]
    assert len(pipes) == fig2.f
    for pipe in pipes:
        assert len(pipe.path) == fig2.k + 1
        assert pipe.path[-1] in fig2.new_nodes
    # all chains share the survivor order
    assert pipes[0].path[:-1] == pipes[1].path[:-1]


def test_ir_sim_matches_eq3(fig2):
    plan = plan_independent(fig2)
    res = FluidSimulator(fig2.cluster).run(plan.tasks)
    assert res.makespan == pytest.approx(repair_model(fig2).t_ir)


def test_ir_repairs_real_bytes(fig2, stripe_data):
    plan = plan_independent(fig2)
    report = run_and_verify(fig2, plan, stripe_data, seed=3)
    # every survivor computed a partial and both new nodes finalized
    for node in fig2.survivor_nodes():
        assert node in report.compute_seconds


def test_ir_chain_order_option(fig2):
    plan = plan_independent(fig2, chain_order="uplink-desc")
    pipes = [t for t in plan.tasks if isinstance(t, PipelineFlow)]
    ups = [fig2.cluster[n].uplink for n in pipes[0].path[:-1]]
    assert ups == sorted(ups, reverse=True)


def test_ir_total_traffic(fig2):
    plan = plan_independent(fig2)
    # f chains x k hops x B
    assert plan.total_transfer_mb() == pytest.approx(2 * 3 * 64.0)


# ------------------------------------------------------------------ #
# HMBR
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("split", ["search", "volume", "theorem1"])
def test_hmbr_repairs_real_bytes_any_split(fig2, stripe_data, split):
    plan = plan_hybrid(fig2, split=split)
    run_and_verify(fig2, plan, stripe_data, seed=4)
    assert 0.0 <= plan.meta["p0"] <= 1.0


@pytest.mark.parametrize("p", [0.0, 0.123, 0.5, 1.0])
def test_hmbr_explicit_p_still_correct(fig2, stripe_data, p):
    """Any split ratio must produce bit-exact repairs (Theorem 1 only
    affects speed, never correctness)."""
    plan = plan_hybrid(fig2, p=p)
    run_and_verify(fig2, plan, stripe_data, seed=5)
    assert plan.meta["p0"] == p


def test_hmbr_never_loses_to_pure_schemes(fig2):
    sim = FluidSimulator(fig2.cluster)
    t_cr_sim = sim.run(plan_centralized(fig2).tasks).makespan
    t_ir_sim = sim.run(plan_independent(fig2).tasks).makespan
    t_h = sim.run(plan_hybrid(fig2, split="search").tasks).makespan
    assert t_h <= min(t_cr_sim, t_ir_sim) + 1e-9


def test_hmbr_degenerate_splits_match_pure_schemes(fig2):
    """p = 0 is exactly IR; p = 1 is exactly CR (plus empty sub-plans)."""
    sim = FluidSimulator(fig2.cluster)
    t_ir_sim = sim.run(plan_independent(fig2).tasks).makespan
    t_cr_sim = sim.run(plan_centralized(fig2).tasks).makespan
    assert sim.run(plan_hybrid(fig2, p=0.0).tasks).makespan == pytest.approx(t_ir_sim)
    assert sim.run(plan_hybrid(fig2, p=1.0).tasks).makespan == pytest.approx(t_cr_sim)


def test_hmbr_meta_records_model(fig2):
    plan = plan_hybrid(fig2, split="theorem1")
    m = repair_model(fig2)
    assert plan.meta["p0"] == pytest.approx(m.p0)


def test_hmbr_invalid_split_rejected(fig2):
    with pytest.raises(ValueError):
        plan_hybrid(fig2, split="nonsense")
    with pytest.raises(ValueError):
        plan_hybrid(fig2, p=1.5)


def test_hmbr_tasks_are_cr_and_ir_sub_plans(fig2):
    plan = plan_hybrid(fig2, p=0.5)
    tags = {t.tag for t in plan.tasks}
    assert any("h.cr" in t for t in tags)
    assert any("h.ir" in t for t in tags)


def test_wide_stripe_hybrid_end_to_end(stripe_data):
    """A (16, 4) stripe with 4 failures, heterogeneous bandwidths."""
    rng = np.random.default_rng(9)
    n = 16 + 4 + 4
    ups = rng.uniform(25, 200, size=n).tolist()
    downs = rng.uniform(25, 200, size=n).tolist()
    ctx = make_repair_ctx(k=16, m=4, f=4, uplinks=ups, downlinks=downs)
    plan = plan_hybrid(ctx)
    run_and_verify(ctx, plan, stripe_data, seed=11)
    sim = FluidSimulator(ctx.cluster)
    t_h = sim.run(plan.tasks).makespan
    t_cr = sim.run(plan_centralized(ctx).tasks).makespan
    t_ir = sim.run(plan_independent(ctx).tasks).makespan
    assert t_h <= min(t_cr, t_ir) + 1e-9


def test_single_block_failure_works(stripe_data):
    """f = 1: HMBR still valid (CR has no distribution stage)."""
    ctx = make_repair_ctx(k=6, m=2, f=1)
    for planner in (plan_centralized, plan_independent, plan_hybrid):
        plan = planner(ctx)
        run_and_verify(ctx, plan, stripe_data, seed=13)
