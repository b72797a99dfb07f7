"""Multi-node repair scheduling tests (§IV-C)."""

import numpy as np
import pytest

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.placement import place_stripes_random
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import block_name
from repro.system.executor import PlanExecutor, Workspace
from repro.repair.multinode import CenterScheduler, plan_multi_node
from repro.simnet.fluid import FluidSimulator


# ------------------------------------------------------------------ #
# LFS + LRS scheduler
# ------------------------------------------------------------------ #
def test_scheduler_least_frequently_selected_first():
    s = CenterScheduler()
    assert s.pick([1, 2, 3]) == 1  # all zero counts, lowest timestamp tie -> id
    assert s.pick([1, 2, 3]) == 2  # 1 now has count 1
    assert s.pick([1, 2, 3]) == 3
    assert s.pick([1, 2, 3]) == 1  # back to equal counts; 1 least recent


def test_scheduler_least_recently_selected_tiebreak():
    s = CenterScheduler()
    s.pick([1])  # 1: count 1, time 1
    s.pick([2])  # 2: count 1, time 2
    # both have count 1; 1 selected longer ago
    assert s.pick([1, 2]) == 1


def test_scheduler_restricted_candidates():
    s = CenterScheduler()
    for _ in range(3):
        s.pick([7])
    # 7 heavily used; fresh node wins
    assert s.pick([7, 9]) == 9
    assert s.load_of(7) == 3
    with pytest.raises(ValueError):
        s.pick([])


# ------------------------------------------------------------------ #
# multi-node planning
# ------------------------------------------------------------------ #
def multi_node_setup(k=4, m=2, n_data=16, n_stripes=12, n_dead=2, seed=0):
    n_total = n_data + n_dead
    ds = make_wld(n_total, "WLD-4x", seed=seed)
    cluster = Cluster(
        [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_total)]
    )
    code = RSCode(k, m)
    layout = place_stripes_random(cluster, n_stripes, k, m, rng=seed, candidates=list(range(n_data)))
    rng = np.random.default_rng(seed + 1)
    dead = sorted(int(x) for x in rng.choice(n_data, size=n_dead, replace=False))
    cluster.fail_nodes(dead)
    replacement = {d: n_data + i for i, d in enumerate(dead)}
    return cluster, code, layout, dead, replacement


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr"])
def test_multi_node_plans_cover_all_lost_blocks(scheme):
    cluster, code, layout, dead, repl = multi_node_setup()
    merged, jobs = plan_multi_node(cluster, code, layout, dead, repl, scheme=scheme, block_size_mb=8.0)
    lost = layout.stripes_with_failures(dead)
    assert {j.stripe_id for j in jobs} == set(lost)
    for job in jobs:
        assert job.failed_blocks == lost[job.stripe_id]
        assert job.center in job.new_nodes


def test_multi_node_missing_replacement_rejected():
    cluster, code, layout, dead, repl = multi_node_setup()
    del repl[dead[0]]
    with pytest.raises(ValueError):
        plan_multi_node(cluster, code, layout, dead, repl)


def test_multi_node_no_affected_stripes():
    cluster, code, layout, dead, repl = multi_node_setup()
    with pytest.raises(ValueError):
        plan_multi_node(cluster, code, layout, [], {})


def test_multi_node_unknown_scheme():
    cluster, code, layout, dead, repl = multi_node_setup()
    with pytest.raises(ValueError):
        plan_multi_node(cluster, code, layout, dead, repl, scheme="xyz")


def homogeneous_multi_node_setup(k=8, m=4, n_data=30, n_stripes=20, n_dead=4, seed=3):
    """Uniform bandwidths: center *spreading* is then always >= concentration
    (the fastest-downlink baseline degenerates to picking one fixed node)."""
    n_total = n_data + n_dead
    cluster = Cluster([Node(i, 100.0, 100.0) for i in range(n_total)])
    code = RSCode(k, m)
    layout = place_stripes_random(cluster, n_stripes, k, m, rng=seed, candidates=list(range(n_data)))
    rng = np.random.default_rng(seed + 1)
    dead = sorted(int(x) for x in rng.choice(n_data, size=n_dead, replace=False))
    cluster.fail_nodes(dead)
    replacement = {d: n_data + i for i, d in enumerate(dead)}
    return cluster, code, layout, dead, replacement


def test_enhanced_spreads_centers():
    cluster, code, layout, dead, repl = homogeneous_multi_node_setup()
    _, base_jobs = plan_multi_node(cluster, code, layout, dead, repl, scheme="cr", enhanced=False)
    _, enh_jobs = plan_multi_node(cluster, code, layout, dead, repl, scheme="cr", enhanced=True)

    def max_load(jobs):
        centers = [j.center for j in jobs]
        return max(centers.count(c) for c in set(centers))

    assert max_load(enh_jobs) <= max_load(base_jobs)


def test_enhanced_cr_is_faster_under_contention():
    cluster, code, layout, dead, repl = homogeneous_multi_node_setup()
    sim = FluidSimulator(cluster)
    base, _ = plan_multi_node(cluster, code, layout, dead, repl, scheme="cr", enhanced=False)
    enh, _ = plan_multi_node(cluster, code, layout, dead, repl, scheme="cr", enhanced=True)
    t_base = sim.run(base.tasks).makespan
    t_enh = sim.run(enh.tasks).makespan
    assert t_enh <= t_base + 1e-9


def test_global_search_records_each_stripes_split():
    cluster, code, layout, dead, repl = multi_node_setup()
    merged, jobs = plan_multi_node(cluster, code, layout, dead, repl, scheme="hmbr", split="global-search")
    assert set(merged.meta["split"]) == {j.stripe_id for j in jobs}
    assert all(j.plan.meta["p0"] == merged.meta["split"][j.stripe_id] for j in jobs)
    assert all(0.0 <= p <= 1.0 for p in merged.meta["split"].values())
    merged2, jobs2 = plan_multi_node(cluster, code, layout, dead, repl, scheme="hmbr", split="per-stripe")
    assert merged2.meta["split"] is None
    assert all(0.0 <= j.plan.meta["p0"] <= 1.0 for j in jobs2)


def test_multi_node_repairs_real_bytes_end_to_end():
    """Execute every stripe's plan on real data and verify bit-exactness."""
    cluster, code, layout, dead, repl = multi_node_setup(n_stripes=8, seed=5)
    merged, jobs = plan_multi_node(cluster, code, layout, dead, repl, scheme="hmbr", block_size_mb=8.0)
    rng = np.random.default_rng(6)
    ws = Workspace()
    originals = {}
    for stripe in layout:
        data = rng.integers(0, 256, size=(code.k, 256), dtype=np.uint8)
        full = code.encode_stripe(data)
        originals[stripe.stripe_id] = full
        ws.load_stripe(stripe, full)
    for d in dead:
        ws.drop_node(d)
    ex = PlanExecutor(ws)
    for job in jobs:
        expected = {b: originals[job.stripe_id][b] for b in job.failed_blocks}
        ex.execute(job.plan, verify_against=expected)
