"""Adaptive re-planning bench: static vs adaptive makespans under churn.

Each case plans HMBR against the pre-change snapshot, then rides a
seed-derived drift-heavy trace (survivor uplinks collapse mid-repair) two
ways: the static plan simulated as-is, and the adaptive engine re-planning
the remaining volume at the drifted event boundary.  Points carry both
makespans and their ratio into ``BENCH_adaptive.json`` (suite
``adaptive-replan``); the schema gate holds the aggregate
``env.adaptive_speedup_x`` strictly above 1 — the artifact exists to pin
that re-planning beats riding out a stale plan.

Plain test functions (no pytest-benchmark fixture) so the smoke job can run
them without the plugin installed; ``BENCH_SMOKE=1`` shrinks the shape.
"""

import os

import numpy as np

from benchmarks.conftest import record_point, set_env
from repro.adaptive import AdaptiveEngine, AdaptiveEntry
from repro.experiments.common import build_scenario
from repro.repair.hybrid import plan_hybrid
from repro.simnet import NetworkTrace
from repro.simnet.fluid import FluidSimulator

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

CASES = [(16, 8, 4)] if SMOKE else [(16, 8, 4), (32, 8, 8)]
SEEDS = (2023,) if SMOKE else (2023, 2024, 2025)


def _one(k, m, f, seed):
    """(t_static, t_adaptive, replans, wasted_mb) for one churned scenario."""
    sc = build_scenario(k, m, f, wld="WLD-2x", seed=seed, block_size_mb=64.0)
    ctx = sc.ctx
    survivors = ctx.survivor_nodes()
    trace = NetworkTrace.degrade(
        survivors[: max(1, len(survivors) // 2)], at_time=1.0, factor=8.0
    )
    events = trace.events_for(ctx.cluster)
    stale = plan_hybrid(ctx)
    t_static = FluidSimulator(ctx.cluster).run(stale.tasks, events=events).makespan
    engine = AdaptiveEngine(ctx.cluster, events=events)
    report = engine.run(
        [AdaptiveEntry(key=f"s{seed}", ctx=ctx, scheme="hmbr", plan=stale)]
    )
    return t_static, report.makespan_s, report.replans, report.wasted_mb


def test_adaptive_vs_static_under_churn():
    """Seeded churn cases: record the trajectory and the aggregate win."""
    speedups = []
    for k, m, f in CASES:
        rows = [_one(k, m, f, seed) for seed in SEEDS]
        t_static = float(np.mean([r[0] for r in rows]))
        t_adaptive = float(np.mean([r[1] for r in rows]))
        speedup = t_static / t_adaptive
        speedups.append(speedup)
        record_point(
            "adaptive", f"adaptive.replan.k{k}m{m}f{f}",
            {"k": k, "m": m, "f": f, "seeds": len(SEEDS), "scheme": "hmbr",
             "smoke": SMOKE},
            {
                "t_static_s": t_static,
                "t_adaptive_s": t_adaptive,
                "speedup_x": speedup,
                "replans_mean": float(np.mean([r[2] for r in rows])),
                "wasted_mb_mean": float(np.mean([r[3] for r in rows])),
            },
        )
        assert t_adaptive < t_static, (k, m, f)
    set_env("adaptive", adaptive_speedup_x=float(np.exp(np.mean(np.log(speedups)))))


def test_adaptive_quiet_overhead_is_zero():
    """On a quiet network the adaptive run matches the static makespan."""
    k, m, f = CASES[0]
    sc = build_scenario(k, m, f, wld="WLD-2x", seed=7, block_size_mb=64.0)
    plan = plan_hybrid(sc.ctx)
    t_static = FluidSimulator(sc.ctx.cluster).run(plan.tasks).makespan
    report = AdaptiveEngine(sc.ctx.cluster).run(
        [AdaptiveEntry(key="s0", ctx=sc.ctx, scheme="hmbr", plan=plan)]
    )
    assert abs(report.makespan_s - t_static) <= 1e-9
    assert report.replans == 0 and report.wasted_mb == 0.0
    record_point(
        "adaptive", "adaptive.quiet_overhead",
        {"k": k, "m": m, "f": f, "scheme": "hmbr", "smoke": SMOKE},
        {
            "t_static_s": t_static,
            "t_adaptive_s": report.makespan_s,
            "makespan_delta_s": abs(report.makespan_s - t_static),
        },
    )
