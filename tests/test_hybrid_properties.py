"""Property-based fuzzing of the HMBR planner across random scenarios.

The paper's central claim — "HMBR always outperforms CR and IR" — is checked
here as a *property* over randomized stripe shapes, failure patterns and
bandwidth assignments, together with bit-exactness of the executed repair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repair.centralized import plan_centralized
from repro.system.executor import PlanExecutor, Workspace
from repro.repair.hybrid import plan_hybrid
from repro.repair.independent import plan_independent
from repro.repair.validate import validate_plan
from repro.simnet.fluid import FluidSimulator
from tests.conftest import make_repair_ctx


@st.composite
def repair_scenario(draw):
    k = draw(st.integers(min_value=2, max_value=16))
    m = draw(st.integers(min_value=1, max_value=6))
    f = draw(st.integers(min_value=1, max_value=m))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n = k + m + f
    ups = rng.uniform(10, 250, size=n).tolist()
    downs = rng.uniform(10, 250, size=n).tolist()
    return make_repair_ctx(k=k, m=m, f=f, uplinks=ups, downlinks=downs), seed


@settings(max_examples=25, deadline=None)
@given(repair_scenario())
def test_hmbr_never_loses_property(scenario):
    ctx, _ = scenario
    sim = FluidSimulator(ctx.cluster)
    t_cr = sim.run(plan_centralized(ctx).tasks).makespan
    t_ir = sim.run(plan_independent(ctx).tasks).makespan
    t_h = sim.run(plan_hybrid(ctx).tasks).makespan
    assert t_h <= min(t_cr, t_ir) + 1e-9


@settings(max_examples=12, deadline=None)
@given(repair_scenario())
def test_all_schemes_bit_exact_property(scenario):
    ctx, seed = scenario
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(ctx.code.k, 128), dtype=np.uint8)
    full = ctx.code.encode_stripe(data)
    for planner in (plan_centralized, plan_independent, plan_hybrid):
        plan = planner(ctx)
        validate_plan(plan, ctx)
        ws = Workspace()
        ws.load_stripe(ctx.stripe, full)
        for b in ctx.failed_blocks:
            ws.drop_node(ctx.stripe.placement[b])
        PlanExecutor(ws).execute(
            plan, verify_against={b: full[b] for b in ctx.failed_blocks}
        )


@settings(max_examples=15, deadline=None)
@given(repair_scenario(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_explicit_split_monotone_parts(scenario, p):
    """At any p, the CR part carries p of the bytes and IR the rest."""
    ctx, _ = scenario
    plan = plan_hybrid(ctx, p=p)
    cr_mb = sum(
        t.size_mb * len(t.hops) for t in plan.tasks if "h.cr" in t.tag
    )
    ir_mb = sum(
        t.size_mb * len(t.hops) for t in plan.tasks if "h.ir" in t.tag
    )
    k, f, b = ctx.k, ctx.f, ctx.block_size_mb
    expect_cr = p * b * (k + f - 1)
    expect_ir = (1 - p) * b * k * f
    assert cr_mb == pytest.approx(expect_cr, abs=1e-6)
    assert ir_mb == pytest.approx(expect_ir, abs=1e-6)
