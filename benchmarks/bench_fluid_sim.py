"""Fluid network-simulator scaling benchmarks.

``BENCH_SMOKE=1`` stops the fan-out at 2 000 flows; the full run adds the
8 000-flow point of ROADMAP item 1(a) (< 5 s with the compiled allocator).
"""

import os

import numpy as np
import pytest

from benchmarks.conftest import attach
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.simnet.flows import Flow, PipelineFlow
from repro.simnet.fluid import FluidSimulator

SMOKE = os.environ.get("BENCH_SMOKE") == "1"


def random_cluster(n, seed=0):
    rng = np.random.default_rng(seed)
    return Cluster(
        [Node(i, float(rng.uniform(25, 200)), float(rng.uniform(25, 200))) for i in range(n)]
    )


@pytest.mark.parametrize("n_flows", [50, 500, 2000] + ([] if SMOKE else [8000]))
def test_flow_fanout_scaling(benchmark, n_flows):
    cluster = random_cluster(100)
    rng = np.random.default_rng(1)
    tasks = []
    for i in range(n_flows):
        a, b = rng.choice(100, size=2, replace=False)
        tasks.append(Flow(f"f{i}", int(a), int(b), float(rng.uniform(1, 64))))
    sim = FluidSimulator(cluster)
    if n_flows >= 2000:  # seconds per run: time it once, not to a target error
        res = benchmark.pedantic(sim.run, (tasks,), rounds=1, iterations=1)
    else:
        res = benchmark(sim.run, tasks)
    assert res.makespan > 0
    attach(
        benchmark,
        rate_updates=res.n_rate_updates,
        allocator=FluidSimulator.allocator_info()["kind"],
    )


def test_wide_stripe_hmbr_simulation(benchmark):
    """Simulating one (64, 16, 16) HMBR plan — the heaviest single-stripe case."""
    from repro.experiments.common import build_scenario, plan_for

    sc = build_scenario(64, 16, 16, wld="WLD-8x", seed=2023)
    plan = plan_for(sc.ctx, "hmbr")
    sim = FluidSimulator(sc.cluster)
    res = benchmark(sim.run, plan.tasks)
    assert res.makespan > 0


def test_pipeline_heavy_simulation(benchmark):
    """Many long chains (IR-style) through a shared cluster."""
    cluster = random_cluster(80, seed=2)
    rng = np.random.default_rng(3)
    tasks = []
    for i in range(16):
        path = rng.choice(80, size=30, replace=False)
        tasks.append(PipelineFlow(f"p{i}", tuple(int(x) for x in path), 64.0))
    sim = FluidSimulator(cluster)
    res = benchmark(sim.run, tasks)
    assert res.makespan > 0
