"""Experiment 5 / Figure 12 bench: multi-node repair ± the LFS+LRS scheduler.

The ``batched`` variants exercise the same multi-stripe node-failure shape
through the batched data plane: a coordinator twin (per-stripe vs batched
dispatch, bit-exact by assertion) and pattern-grouped ``plan_multi_node``
planning.  Both record perf-trajectory points into ``BENCH_batch.json``;
``BENCH_SMOKE=1`` shrinks them for CI.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import attach, record_point
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import get_code
from repro.experiments.exp5 import run as run_exp5
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest

SMOKE = os.environ.get("BENCH_SMOKE") == "1"


def test_exp5_multinode_scheduling(benchmark):
    rows = benchmark.pedantic(
        run_exp5,
        kwargs={
            "cases": [(32, 8, 4), (64, 8, 8)],
            "seeds": (2023,),
            "n_stripes": 16,
        },
        rounds=1,
        iterations=1,
    )
    wide = next(r for r in rows if r["(k,m,f)"] == "(64,8,8)")
    # the scheduler must spread center load and pay off on wide stripes
    assert wide["max_center_load_enh"] <= wide["max_center_load_base"]
    assert wide["reduction_%"] > 5.0
    attach(
        benchmark,
        wide_reduction_pct=wide["reduction_%"],
        paper_mean_pct=10.9,
        paper_max_pct=15.9,
    )


# --------------------------------------------------------------------- #
# batched variants
# --------------------------------------------------------------------- #
def _build_coordinator(block_bytes, n_stripes, seed=0, k=8, m=4):
    nodes = [Node(i, rack=i % 4, uplink=1.0, downlink=1.0) for i in range(20)]
    coord = Coordinator(Cluster(nodes), get_code(k, m, 8), block_bytes=block_bytes, rng=seed)
    for j in range(6):
        coord.add_spare(Node(100 + j, rack=j % 4, uplink=1.0, downlink=1.0))
    rng = np.random.default_rng(seed + 1)
    payload = rng.integers(0, 256, size=n_stripes * k * block_bytes, dtype=np.uint8)
    coord.write("f", payload.tobytes())
    return coord


def test_exp5_batched_node_repair_data_plane():
    """Whole-node repair through the coordinator: batched dispatch must stay
    bit-exact with the per-stripe plane while grouping stripes per pattern."""
    block = (1 << 12) if SMOKE else (1 << 16)
    n_stripes = 8 if SMOKE else 24
    repeats = 1 if SMOKE else 3

    def run_once(batched):
        coord = _build_coordinator(block, n_stripes)
        coord.crash_node(3)
        t0 = time.perf_counter()
        report = coord.repair(RepairRequest(scheme="hmbr", verify=False, batched=batched))
        return time.perf_counter() - t0, coord, report

    runs_single = [run_once(False) for _ in range(repeats)]
    runs_batch = [run_once(True) for _ in range(repeats)]
    t_single = min(r[0] for r in runs_single)
    t_batch, coord_b, rb = min(runs_batch, key=lambda r: r[0])
    coord_a = runs_single[0][1]
    assert coord_a.read("f") == coord_b.read("f")
    assert rb.batched and rb.plan_summary["pattern_groups"] >= 1
    assert rb.plan_summary["plan_cache"]["misses"] >= 1
    record_point(
        "batch", "exp5.batched_node_repair",
        params={
            "k": 8, "m": 4, "stripes": n_stripes,
            "block_bytes": block, "scheme": "hmbr", "smoke": SMOKE,
        },
        metrics={
            "per_stripe_s": t_single,
            "batched_s": t_batch,
            "speedup_x": t_single / t_batch,
            "pattern_groups": rb.plan_summary["pattern_groups"],
            "plan_misses": rb.plan_summary["plan_cache"]["misses"],
        },
    )


def test_exp5_batched_plan_grouping():
    """Pattern-grouped multi-node planning on the exp5 scenario: grouping
    must cover the same stripes and warm exactly one plan per group."""
    from repro.cluster.bandwidth import make_wld
    from repro.cluster.placement import place_stripes_random
    from repro.repair.batch import PlanCache
    from repro.repair.multinode import plan_multi_node

    k, m, n_dead = (8, 4, 2) if SMOKE else (32, 8, 4)
    n_data, n_stripes = (16, 8) if SMOKE else (48, 24)
    ds = make_wld(n_data + n_dead, "WLD-4x", seed=2023)
    cluster = Cluster(
        [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data + n_dead)]
    )
    code = get_code(k, m)
    layout = place_stripes_random(
        cluster, n_stripes, k, m, rng=2023, candidates=list(range(n_data))
    )
    rng = np.random.default_rng(2023 + 13)
    dead = sorted(int(x) for x in rng.choice(n_data, size=n_dead, replace=False))
    cluster.fail_nodes(dead)
    replacement_of = {d: n_data + i for i, d in enumerate(dead)}

    t0 = time.perf_counter()
    merged_plain, jobs_plain = plan_multi_node(cluster, code, layout, dead, replacement_of)
    t_plain = time.perf_counter() - t0
    cache = PlanCache()
    t0 = time.perf_counter()
    merged_grp, jobs_grp = plan_multi_node(
        cluster, code, layout, dead, replacement_of,
        group_patterns=True, plan_cache=cache,
    )
    t_grouped = time.perf_counter() - t0

    groups = merged_grp.meta["pattern_groups"]
    assert sorted(j.stripe_id for j in jobs_plain) == sorted(j.stripe_id for j in jobs_grp)
    assert groups and sum(len(g["stripes"]) for g in groups) == len(jobs_grp)
    assert merged_grp.meta["plan_cache"]["misses"] == len(groups) == len(cache)
    record_point(
        "batch", "exp5.batched_plan_grouping",
        params={
            "k": k, "m": m, "n_dead": n_dead, "stripes": n_stripes, "smoke": SMOKE,
        },
        metrics={
            "plan_plain_s": t_plain,
            "plan_grouped_s": t_grouped,
            "pattern_groups": len(groups),
            "stripes_per_group": len(jobs_grp) / len(groups),
        },
    )
