"""Single-block repair scheme tests (star / chain-RP / PPR)."""

import numpy as np
import pytest

from repro.system.executor import PlanExecutor
from repro.repair.singleblock import SINGLE_BLOCK_SCHEMES, plan_chain, plan_ppr, plan_star
from repro.repair.validate import validate_plan
from repro.simnet.fluid import FluidSimulator
from tests.conftest import make_repair_ctx


@pytest.mark.parametrize("scheme", sorted(SINGLE_BLOCK_SCHEMES))
def test_single_block_schemes_repair_real_bytes(scheme, stripe_data):
    ctx = make_repair_ctx(k=8, m=2, f=1)
    plan = SINGLE_BLOCK_SCHEMES[scheme](ctx)
    validate_plan(plan, ctx)
    full, ws = stripe_data(ctx, seed=1)
    fb = ctx.failed_blocks[0]
    PlanExecutor(ws).execute(plan, verify_against={fb: full[fb]})


@pytest.mark.parametrize("scheme", sorted(SINGLE_BLOCK_SCHEMES))
def test_single_block_schemes_reject_multi_failure(scheme):
    ctx = make_repair_ctx(k=6, m=2, f=2)
    with pytest.raises(ValueError):
        SINGLE_BLOCK_SCHEMES[scheme](ctx)


def test_chain_time_independent_of_k():
    """RP's selling point: repair time does not grow with stripe width."""
    times = {}
    for k in (4, 16, 64):
        ctx = make_repair_ctx(k=k, m=2, f=1, block_size_mb=64.0)
        sim = FluidSimulator(ctx.cluster)
        times[k] = sim.run(plan_chain(ctx).tasks).makespan
    assert times[64] == pytest.approx(times[4], rel=0.01)


def test_star_time_grows_linearly_with_k():
    times = {}
    for k in (4, 16, 64):
        ctx = make_repair_ctx(k=k, m=2, f=1, block_size_mb=64.0)
        sim = FluidSimulator(ctx.cluster)
        times[k] = sim.run(plan_star(ctx).tasks).makespan
    assert times[64] == pytest.approx(times[4] * 16, rel=0.02)


def test_ppr_time_grows_logarithmically():
    """PPR's rounds scale with log2(k): (k=64)/(k=4) ~ 6/2 = 3x, not 16x."""
    times = {}
    for k in (4, 64):
        ctx = make_repair_ctx(k=k, m=2, f=1, block_size_mb=64.0)
        sim = FluidSimulator(ctx.cluster)
        times[k] = sim.run(plan_ppr(ctx).tasks).makespan
    ratio = times[64] / times[4]
    assert 2.0 <= ratio <= 4.5


def test_ppr_round_count():
    ctx = make_repair_ctx(k=16, m=2, f=1)
    plan = plan_ppr(ctx)
    # 16 holders -> 8 -> 4 -> 2 -> 1: four rounds + final forward
    assert plan.meta["rounds"] == 5


def test_ordering_wide_stripe():
    """chain beats ppr beats star on a wide stripe with uniform bandwidth."""
    ctx = make_repair_ctx(k=32, m=4, f=1, block_size_mb=64.0)
    sim = FluidSimulator(ctx.cluster)
    t_star = sim.run(plan_star(ctx).tasks).makespan
    t_ppr = sim.run(plan_ppr(ctx).tasks).makespan
    t_chain = sim.run(plan_chain(ctx).tasks).makespan
    assert t_chain < t_ppr < t_star
