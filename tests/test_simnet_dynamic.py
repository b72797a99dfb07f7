"""Dynamic bandwidth workload tests (§VII extension)."""

import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.simnet.dynamic import BandwidthEvent
from repro.simnet.flows import Flow
from repro.simnet.fluid import FluidSimulator
from repro.simnet.network import NetworkTrace


def two_node_cluster(up=100.0, down=100.0):
    return Cluster([Node(0, up, down), Node(1, up, down)])


def test_event_validation():
    with pytest.raises(ValueError):
        BandwidthEvent(time=-1.0, node=0, uplink=10)
    with pytest.raises(ValueError):
        BandwidthEvent(time=0.0, node=0, uplink=0.0)
    ev = BandwidthEvent(time=1.0, node=3, downlink=50.0)
    assert ev.capacity_updates() == {"down:3": 50.0}


def test_flow_straddles_bandwidth_drop():
    """100 MB at 100 MB/s for 0.5 s, then 50 MB/s: total = 0.5 + 50/50 = 1.5 s."""
    cl = two_node_cluster()
    sim = FluidSimulator(cl)
    events = [BandwidthEvent(time=0.5, node=0, uplink=50.0)]
    res = sim.run([Flow("f", 0, 1, 100.0)], events=events)
    assert res.makespan == pytest.approx(1.5, rel=1e-6)


def test_flow_straddles_bandwidth_recovery():
    """Rates can also improve mid-flight."""
    cl = two_node_cluster(up=50.0)
    sim = FluidSimulator(cl)
    events = [BandwidthEvent(time=1.0, node=0, uplink=200.0)]
    res = sim.run([Flow("f", 0, 1, 100.0)], events=events)
    # 50 MB in the first second, remaining 50 MB at min(200, down=100) = 100
    assert res.makespan == pytest.approx(1.5, rel=1e-6)


def test_event_after_completion_is_harmless():
    cl = two_node_cluster()
    sim = FluidSimulator(cl)
    res = sim.run([Flow("f", 0, 1, 10.0)], events=[BandwidthEvent(5.0, 0, uplink=1.0)])
    assert res.makespan == pytest.approx(0.1)


def test_multiple_events_piecewise_rates():
    cl = two_node_cluster()
    sim = FluidSimulator(cl)
    events = [
        BandwidthEvent(0.5, 0, uplink=10.0),
        BandwidthEvent(1.5, 0, uplink=100.0),
    ]
    # 50 MB + 10 MB + remaining 40 MB at 100 -> 0.5 + 1.0 + 0.4 = 1.9 s
    res = sim.run([Flow("f", 0, 1, 100.0)], events=events)
    assert res.makespan == pytest.approx(1.9, rel=1e-6)


def test_many_events_drain_in_order_and_in_linear_time():
    """Regression for the quadratic ``pending_events.pop(0)`` drain.

    10k bandwidth events against one long flow must (a) produce the exact
    piecewise-constant makespan and (b) complete quickly — the old
    list-pop-front loop went quadratic in the event count.  The timing
    bound is deliberately loose (CI-safe) while still far below the
    quadratic regime, which took minutes at this size.
    """
    import time

    cl = two_node_cluster()
    n = 10_000
    # alternate the uplink between 100 and 50 MB/s every millisecond
    events = [
        BandwidthEvent(time=0.001 * (i + 1), node=0,
                       uplink=50.0 if i % 2 == 0 else 100.0)
        for i in range(n)
    ]
    # mean rate over the event window is 75 MB/s; size the flow to finish
    # mid-window so thousands of events apply while it runs
    size_mb = 75.0 * 0.001 * (n // 2)  # 375 MB -> finishes around t = 5 s
    t0 = time.perf_counter()
    res = FluidSimulator(cl).run([Flow("f", 0, 1, size_mb)], events=events)
    elapsed = time.perf_counter() - t0
    # exact piecewise integral: 0.1 MB per 1 ms at 100, 0.05 MB per ms at 50
    remaining = size_mb - 0.1  # first ms runs at the initial 100 MB/s
    t = 0.001
    rate = 50.0
    while remaining > rate * 0.001 + 1e-12:
        remaining -= rate * 0.001
        t += 0.001
        rate = 100.0 if rate == 50.0 else 50.0
    t += remaining / rate
    assert res.makespan == pytest.approx(t, rel=1e-6)
    assert elapsed < 10.0, f"event drain took {elapsed:.1f}s — quadratic again?"


def test_degrade_trace_lowering():
    cl = Cluster([Node(0, 100, 200, cross_uplink=20), Node(1, 100, 100)])
    events = NetworkTrace.degrade([0], at_time=2.0, factor=4.0).events_for(cl)
    assert len(events) == 1
    ev = events[0]
    assert ev.uplink == 25.0 and ev.downlink == 50.0 and ev.cross_uplink == 5.0
    with pytest.raises(ValueError):
        NetworkTrace.degrade([0], at_time=1.0, factor=0.0)


def test_dynamics_aware_hybrid_never_worse_than_stale():
    """Searching p against the event schedule beats the stale search."""
    from repro.experiments.common import build_scenario
    from repro.repair.hybrid import plan_hybrid

    sc = build_scenario(16, 8, 4, wld="WLD-2x", seed=2023)
    ctx = sc.ctx
    # survivors' uplinks collapse shortly into the repair
    survivors = ctx.survivor_nodes()
    events = NetworkTrace.degrade(
        survivors[:8], at_time=1.0, factor=8.0
    ).events_for(ctx.cluster)
    sim = FluidSimulator(ctx.cluster)
    stale = plan_hybrid(ctx)  # planned against the snapshot
    aware = plan_hybrid(ctx, events=events)
    t_stale = sim.run(stale.tasks, events=events).makespan
    t_aware = sim.run(aware.tasks, events=events).makespan
    assert t_aware <= t_stale + 1e-9
