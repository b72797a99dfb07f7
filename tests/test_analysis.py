"""Table I failure-ratio and Table II breakdown analysis tests."""

import numpy as np
import pytest

from repro.analysis.breakdown import CostModel, breakdown_for_plan
from repro.analysis.failure_sim import (
    failure_ratio_exact,
    failure_ratio_montecarlo,
    simulate_failure_ratio_placement,
    table1_grid,
)
from repro.experiments.table1 import PAPER_TABLE1


# ------------------------------------------------------------------ #
# Table I estimators
# ------------------------------------------------------------------ #
def test_exact_matches_paper_table1():
    """The closed form lands within ~1.5 points of every paper cell."""
    for (k, m), by_n in PAPER_TABLE1.items():
        for n, paper_pct in by_n.items():
            ours = 100.0 * failure_ratio_exact(k, m, n)
            assert ours == pytest.approx(paper_pct, abs=1.5), (k, m, n)


def test_estimators_agree():
    k, m, n = 12, 4, 1000
    exact = failure_ratio_exact(k, m, n)
    mc = failure_ratio_montecarlo(k, m, n, n_stripes=400_000, rng=0)
    placed = simulate_failure_ratio_placement(k, m, n, n_stripes=30_000, rng=0)
    assert mc == pytest.approx(exact, rel=0.05)
    assert placed == pytest.approx(exact, rel=0.15)


def test_ratio_increases_with_stripe_width():
    """The paper's core observation: wider stripes -> more multi-block failures."""
    widths = [(6, 3), (12, 4), (32, 8), (64, 8), (64, 24)]
    ratios = [failure_ratio_exact(k, m, 2500) for k, m in widths]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_ratio_increases_with_cluster_size():
    ratios = [failure_ratio_exact(64, 8, n) for n in (500, 1000, 2500, 5000)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_ratio_increases_with_loss_fraction():
    low = failure_ratio_exact(32, 8, 1000, loss_fraction=0.005)
    high = failure_ratio_exact(32, 8, 1000, loss_fraction=0.02)
    assert low < high


def test_degenerate_all_nodes_fail():
    assert failure_ratio_exact(6, 3, 100, loss_fraction=1.0) == pytest.approx(1.0)


def test_width_exceeding_cluster_rejected():
    with pytest.raises(ValueError):
        failure_ratio_exact(64, 8, 50)


def test_table1_grid_shapes_and_methods():
    grid = table1_grid(codes=[(6, 3)], node_counts=[500, 1000], method="exact")
    assert set(grid) == {(6, 3)}
    assert set(grid[(6, 3)]) == {500, 1000}
    mc = table1_grid(codes=[(6, 3)], node_counts=[500], method="montecarlo", n_stripes=50_000)
    assert 0 < mc[(6, 3)][500] < 0.2
    with pytest.raises(ValueError):
        table1_grid(method="nonsense")


# ------------------------------------------------------------------ #
# Table II breakdown
# ------------------------------------------------------------------ #
def test_breakdown_transfer_dominates():
    from repro.experiments.common import build_scenario, plan_for
    from repro.system.executor import PlanExecutor, Workspace

    sc = build_scenario(16, 4, 4, wld="WLD-8x", seed=1, block_size_mb=64.0)
    ctx = sc.ctx
    rng = np.random.default_rng(0)
    test_bytes = 1 << 14
    data = rng.integers(0, 256, size=(ctx.code.k, test_bytes), dtype=np.uint8)
    full = ctx.code.encode_stripe(data)
    plan = plan_for(ctx, "hmbr")
    ws = Workspace()
    ws.load_stripe(ctx.stripe, full)
    for n in sc.dead_nodes:
        ws.drop_node(n)
    report = PlanExecutor(ws).execute(plan)
    bd = breakdown_for_plan(ctx, plan, report, test_bytes)
    assert bd.transfer_s > 0 and bd.other_s > 0
    assert 0.5 < bd.transfer_fraction < 1.0
    assert bd.total_s == pytest.approx(bd.transfer_s + bd.other_s)
    assert bd.scheme == "HMBR" and bd.f == 4


def test_cost_model_scaling():
    """Doubling GF throughput must not increase the non-transfer time."""
    from repro.experiments.exp6 import run

    slow = run(cases=[(8, 4)], test_block_bytes=1 << 12, cost=CostModel(gf_throughput_gbps=5))
    fast = run(cases=[(8, 4)], test_block_bytes=1 << 12, cost=CostModel(gf_throughput_gbps=10))
    for s, f in zip(slow, fast):
        assert f["T_o_s"] <= s["T_o_s"] + 1e-9
        assert f["T_t_s"] == pytest.approx(s["T_t_s"])
