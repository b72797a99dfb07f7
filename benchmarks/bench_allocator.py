"""Evaluator performance benchmarks: the static-share shortcut against the
fluid solver on the same plan."""

from repro.simnet.fluid import FluidSimulator
from repro.simnet.static import StaticShareEvaluator


def test_fluid_vs_static_evaluator_speed(benchmark):
    """The static evaluator's speed advantage for search loops."""
    from repro.experiments.common import build_scenario, plan_for

    sc = build_scenario(64, 8, 8, wld="WLD-8x", seed=2023)
    plan = plan_for(sc.ctx, "ir")
    static_ev = StaticShareEvaluator(sc.ctx.cluster)
    res = benchmark(static_ev.run, plan.tasks)
    assert res.makespan > 0


def test_fluid_evaluator_same_plan(benchmark):
    from repro.experiments.common import build_scenario, plan_for

    sc = build_scenario(64, 8, 8, wld="WLD-8x", seed=2023)
    plan = plan_for(sc.ctx, "ir")
    sim = FluidSimulator(sc.ctx.cluster)
    res = benchmark(sim.run, plan.tasks)
    assert res.makespan > 0
