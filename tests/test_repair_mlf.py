"""Multi-level forwarding (MLF) planner: structure, bounds, bit-exactness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repair._build import mlf_children
from repro.system.executor import PlanExecutor, Workspace
from repro.repair.mlf import plan_mlf
from repro.repair.validate import validate_plan
from repro.simnet.fluid import FluidSimulator
from tests.conftest import make_repair_ctx


def test_mlf_children_heap_layout():
    ch = mlf_children(7, 2)
    assert ch[0] == [1, 2]
    assert ch[1] == [3, 4]
    assert ch[2] == [5, 6]
    assert ch[3] == []
    with pytest.raises(ValueError):
        mlf_children(4, 1)


def test_mlf_plan_structure_and_meta():
    ctx = make_repair_ctx(k=9, m=3, f=2)
    plan = plan_mlf(ctx, degree=3)
    validate_plan(plan, ctx)
    assert plan.scheme == "MLF"
    assert plan.meta["degree"] == 3
    # complete 3-ary tree over 9 survivors: depth 2
    assert plan.meta["depth"] == 2
    assert plan.meta["root"] in plan.meta["survivors"]
    # the root distributes the finished partials to each new node
    dist = [t for t in plan.tasks if t.tag.endswith(":dist")]
    assert len(dist) == ctx.f
    assert all(t.src == plan.meta["root"] for t in dist)


def test_mlf_default_degree_near_sqrt_k():
    ctx = make_repair_ctx(k=16, m=4, f=2)
    plan = plan_mlf(ctx)
    assert plan.meta["degree"] == max(2, int(round(math.sqrt(16))))


def test_mlf_shallow_critical_path_vs_ir_chain():
    """Tree depth grows ~log_d(k); an IR chain is k hops deep."""
    ctx = make_repair_ctx(k=16, m=4, f=2)
    plan = plan_mlf(ctx, degree=4)
    assert plan.meta["depth"] <= math.ceil(math.log(16, 4)) + 1
    assert plan.meta["depth"] < 16


@st.composite
def mlf_scenario(draw):
    k = draw(st.integers(min_value=2, max_value=16))
    m = draw(st.integers(min_value=1, max_value=6))
    f = draw(st.integers(min_value=1, max_value=m))
    degree = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=5)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n = k + m + f
    ups = rng.uniform(10, 250, size=n).tolist()
    downs = rng.uniform(10, 250, size=n).tolist()
    ctx = make_repair_ctx(k=k, m=m, f=f, uplinks=ups, downlinks=downs)
    return ctx, degree, seed


@settings(max_examples=20, deadline=None)
@given(mlf_scenario())
def test_mlf_bit_exact_property(scenario):
    """Random shapes: the plan validates, simulates, and decodes bit-exact."""
    ctx, degree, seed = scenario
    plan = plan_mlf(ctx, degree=degree)
    validate_plan(plan, ctx)
    assert FluidSimulator(ctx.cluster).run(plan.tasks).makespan > 0

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(ctx.code.k, 128), dtype=np.uint8)
    full = ctx.code.encode_stripe(data)
    ws = Workspace()
    ws.load_stripe(ctx.stripe, full)
    for b in ctx.failed_blocks:
        ws.drop_node(ctx.stripe.placement[b])
    PlanExecutor(ws).execute(
        plan, verify_against={b: full[b] for b in ctx.failed_blocks}
    )


def test_mlf_per_node_upload_bounded():
    """No survivor uploads more than (f + degree - 1) block volumes.

    Each tree node sends its f running partials to its parent once; the
    root additionally distributes f finished blocks.
    """
    ctx = make_repair_ctx(k=12, m=4, f=3, block_size_mb=16.0)
    plan = plan_mlf(ctx, degree=3)
    sent = {}
    for t in plan.tasks:
        sent[t.src] = sent.get(t.src, 0.0) + t.size_mb * len(t.hops)
    bound = (ctx.f + 1) * ctx.f * ctx.block_size_mb  # loose: root dist + sends
    assert max(sent.values()) <= bound + 1e-6
