"""Weighted fair sharing and repair-throttling tests."""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.repair.plan import reweighted
from repro.simnet.flows import Flow, PipelineFlow
from repro.simnet.fluid import FluidSimulator
from tests.fluid_reference import ReferenceFluidSimulator, _Resource, array_rates


def two_senders_one_link():
    return Cluster([Node(0, 100, 1000), Node(1, 1000, 1000)])


def test_weight_validation():
    with pytest.raises(ValueError):
        Flow("f", 0, 1, 1.0, weight=0.0)
    with pytest.raises(ValueError):
        PipelineFlow("p", (0, 1), 1.0, weight=-1.0)


def test_weighted_split_on_shared_uplink():
    """Weights 1 and 3 on a 100 MB/s uplink -> 25 and 75 MB/s."""
    cl = two_senders_one_link()
    flows = [
        Flow("light", 0, 1, 25.0, weight=1.0),
        Flow("heavy", 0, 1, 75.0, weight=3.0),
    ]
    res = FluidSimulator(cl).run(flows)
    # sized proportionally to their shares, both finish together at t = 1
    assert res.finish_times["light"] == pytest.approx(1.0)
    assert res.finish_times["heavy"] == pytest.approx(1.0)


def test_weighted_flow_still_capped_elsewhere():
    """A heavy weight cannot push a flow past another bottleneck."""
    cl = Cluster([Node(0, 100, 100), Node(1, 100, 10), Node(2, 100, 100)])
    flows = [
        Flow("a", 0, 1, 10.0, weight=100.0),  # receiver downlink 10 binds
        Flow("b", 0, 2, 90.0, weight=1.0),
    ]
    res = FluidSimulator(cl).run(flows)
    # flow a gets only 10 (its receiver), b picks up the remaining 90
    assert res.finish_times["a"] == pytest.approx(1.0)
    assert res.finish_times["b"] == pytest.approx(1.0)


def test_reference_allocator_weighted():
    resources = {"up": _Resource(100.0)}
    active = {"x": ["up"], "y": ["up"]}
    rates = ReferenceFluidSimulator._allocate(active, resources, weights={"x": 1.0, "y": 4.0})
    assert rates["x"] == pytest.approx(20.0)
    assert rates["y"] == pytest.approx(80.0)


def test_vectorized_matches_reference_with_weights():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        res_keys = [f"r{i}" for i in range(6)]
        caps = {r: float(rng.uniform(10, 100)) for r in res_keys}
        flows = {
            f"f{i}": [res_keys[j] for j in rng.choice(6, size=2, replace=True)]
            for i in range(8)
        }
        weights = {f: float(rng.uniform(0.2, 4.0)) for f in flows}
        resources = {r: _Resource(caps[r]) for r in res_keys}
        ref = ReferenceFluidSimulator._allocate(dict(flows), resources, weights)
        vec = array_rates(res_keys, caps, flows, weights)
        for tid in flows:
            assert vec[tid] == pytest.approx(ref[tid], rel=1e-9)


def test_reweighted_plan_helper():
    from repro.repair.hybrid import plan_hybrid
    from tests.conftest import make_repair_ctx

    ctx = make_repair_ctx(k=6, m=3, f=2)
    plan = plan_hybrid(ctx)
    throttled = reweighted(plan, 0.25)
    assert all(t.weight == 0.25 for t in throttled.tasks)
    assert all(t.weight == 1.0 for t in plan.tasks)  # original untouched
    assert throttled.meta["weight"] == 0.25
    with pytest.raises(ValueError):
        reweighted(plan, 0.0)


def test_throttled_repair_protects_foreground_reads():
    """Weight-0.2 repair: reads stretch less, repair takes longer."""
    from repro.experiments.common import build_scenario, plan_for
    from repro.simnet.flows import Flow as F

    sc = build_scenario(16, 8, 4, wld="WLD-4x", seed=2023)
    ctx = sc.ctx
    rng = np.random.default_rng(9)
    reads = []
    nodes = ctx.cluster.alive_ids()
    for i in range(16):
        a, b = rng.choice(nodes, size=2, replace=False)
        reads.append(F(f"read{i}", int(a), int(b), 16.0))
    sim = FluidSimulator(ctx.cluster)
    plan = plan_for(ctx, "hmbr")
    full = sim.run(plan.tasks + reads)
    throttled = reweighted(plan, 0.2)
    gentle = sim.run(throttled.tasks + reads)

    def read_p95(res):
        times = sorted(res.finish_times[r.task_id] for r in reads)
        return times[int(0.95 * (len(times) - 1))]

    def repair_finish(res, p):
        return max(res.finish_times[t.task_id] for t in p.tasks)

    assert read_p95(gentle) <= read_p95(full) + 1e-9
    assert repair_finish(gentle, throttled) >= repair_finish(full, plan) - 1e-9
