"""Infrastructure benchmarks: probing, churn simulation, export, selectors."""

import numpy as np
import pytest

from benchmarks.conftest import attach
from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.probing import measure_bandwidths
from repro.cluster.topology import Cluster
from repro.simnet.flows import Flow
from repro.simnet.fluid import FluidSimulator
from repro.simnet.network import NetworkTrace
from repro.simnet.viz import ascii_gantt, to_json
from repro.system.request import RepairRequest


def test_probe_full_cluster(benchmark):
    """Measuring the bandwidth table of an 89-node cluster (2 probes/node)."""
    ds = make_wld(88, "WLD-4x", seed=0)
    nodes = [Node(0, 10_000.0, 10_000.0)]
    nodes += [Node(i + 1, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(88)]
    cluster = Cluster(nodes)
    table = benchmark(measure_bandwidths, cluster, 0)
    assert len(table) == 88
    attach(benchmark, nodes_probed=len(table))


def test_simulation_under_ou_churn(benchmark):
    """A 20-flow workload under 60 s of per-second OU bandwidth events."""
    cl = Cluster([Node(i, 100.0, 100.0) for i in range(20)])
    events = NetworkTrace.ou(60.0, step_s=1.0, rel_sigma=0.25, seed=1).events_for(cl)
    rng = np.random.default_rng(2)
    flows = []
    for i in range(20):
        a, b = rng.choice(20, size=2, replace=False)
        flows.append(Flow(f"f{i}", int(a), int(b), float(rng.uniform(16, 128))))
    sim = FluidSimulator(cl)
    res = benchmark(sim.run, flows, events)
    assert res.makespan > 0
    attach(benchmark, events=len(events), rate_updates=res.n_rate_updates)


def test_gantt_and_json_rendering(benchmark):
    from repro.experiments.common import build_scenario, plan_for

    sc = build_scenario(32, 8, 4, wld="WLD-4x", seed=2023)
    plan = plan_for(sc.ctx, "hmbr")
    res = FluidSimulator(sc.ctx.cluster).run(plan.tasks, record_trace=True)

    def render():
        return ascii_gantt(res, plan.tasks), to_json(res, plan.tasks)

    chart, blob = benchmark(render)
    assert "#" in chart and '"makespan_s"' in blob


def test_rebalance_throughput(benchmark):
    from repro.cluster.bandwidth import make_wld
    from repro.ec.rs import RSCode
    from repro.system.coordinator import Coordinator

    def cycle():
        ds = make_wld(20, "WLD-2x", seed=3)
        cluster = Cluster(
            [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(16)]
        )
        coord = Coordinator(cluster, RSCode(4, 2), block_bytes=4096, rng=3)
        for j in range(4):
            coord.add_spare(Node(16 + j, float(ds.uplinks[16 + j]), float(ds.downlinks[16 + j])))
        payload = np.random.default_rng(3).integers(0, 256, 200_000, dtype=np.uint8).tobytes()
        coord.write("f", payload)
        coord.crash_node(coord.layout.stripes[0].placement[0])
        coord.repair(RepairRequest())
        return coord.rebalance()

    stats = benchmark.pedantic(cycle, rounds=3, iterations=1)
    attach(benchmark, moves=stats["moves"])
