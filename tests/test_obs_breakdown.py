"""Trace-vs-live equivalence of the Table II breakdown.

``breakdown_from_trace`` must reproduce ``breakdown_for_plan`` exactly from
nothing but recorded spans — same T_t, same T_o, same scheme — for every
scheme, which is what lets exp6 regenerate Table II off a trace.
"""

import numpy as np
import pytest

from repro.analysis.breakdown import CostModel, breakdown_for_plan, breakdown_from_trace
from repro.experiments.common import build_scenario, plan_for
from repro.obs import Tracer
from repro.system.executor import PlanExecutor, Workspace
from repro.simnet.fluid import FluidSimulator

TEST_BLOCK_BYTES = 1 << 14


def _execute(ctx, sc, scheme, tracer=None):
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=(ctx.code.k, TEST_BLOCK_BYTES), dtype=np.uint8)
    full = ctx.code.encode_stripe(data)
    plan = plan_for(ctx, scheme)
    ws = Workspace()
    ws.load_stripe(ctx.stripe, full)
    for node in sc.dead_nodes:
        ws.drop_node(node)
    report = PlanExecutor(ws).execute(
        plan, verify_against={b: full[b] for b in ctx.failed_blocks}, tracer=tracer
    )
    return plan, report


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr"])
def test_breakdown_from_trace_matches_live(scheme):
    sc = build_scenario(8, 2, 2, wld="WLD-8x", seed=11, block_size_mb=64.0)
    ctx = sc.ctx
    cost = CostModel()

    tracer = Tracer()
    plan, report = _execute(ctx, sc, scheme, tracer=tracer)
    FluidSimulator(ctx.cluster).run(plan.tasks, tracer=tracer)

    live = breakdown_for_plan(ctx, plan, report, TEST_BLOCK_BYTES, cost)
    traced = breakdown_from_trace(tracer, ctx, test_block_bytes=TEST_BLOCK_BYTES, cost=cost)

    assert traced.scheme == live.scheme
    assert traced.k == live.k and traced.m == live.m and traced.f == live.f
    assert traced.transfer_s == live.transfer_s  # same deterministic simulator
    assert traced.other_s == live.other_s  # same integer GF bytes, same model
    assert traced.transfer_fraction == live.transfer_fraction
    # python seconds are the same measurements summed in a different order
    assert traced.python_compute_s == pytest.approx(live.python_compute_s)


def test_breakdown_from_trace_uses_latest_execution():
    """Two executions on one tracer: the row reflects the most recent one."""
    sc = build_scenario(8, 2, 2, wld="WLD-8x", seed=11, block_size_mb=64.0)
    ctx = sc.ctx
    tracer = Tracer()
    _execute(ctx, sc, "cr", tracer=tracer)
    plan, report = _execute(ctx, sc, "hmbr", tracer=tracer)
    FluidSimulator(ctx.cluster).run(plan.tasks, tracer=tracer)

    traced = breakdown_from_trace(tracer, ctx, test_block_bytes=TEST_BLOCK_BYTES)
    live = breakdown_for_plan(ctx, plan, report, TEST_BLOCK_BYTES)
    assert traced.scheme == "HMBR"
    assert traced.other_s == live.other_s


def test_breakdown_from_trace_requires_execute_span():
    sc = build_scenario(8, 2, 2, wld="WLD-8x", seed=11)
    with pytest.raises(ValueError, match="execute"):
        breakdown_from_trace(Tracer(), sc.ctx, test_block_bytes=TEST_BLOCK_BYTES)


def test_breakdown_from_trace_requires_sim_span():
    sc = build_scenario(8, 2, 2, wld="WLD-8x", seed=11)
    tracer = Tracer()
    _execute(sc.ctx, sc, "cr", tracer=tracer)
    with pytest.raises(ValueError, match="sim"):
        breakdown_from_trace(tracer, sc.ctx, test_block_bytes=TEST_BLOCK_BYTES)
