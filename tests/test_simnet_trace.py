"""Rate-trace recording and bottleneck-report tests."""

import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.simnet.flows import Flow, PipelineFlow
from repro.simnet.fluid import FluidSimulator
from repro.simnet.trace import bottleneck_report


def cluster3():
    return Cluster([Node(0, 100, 100), Node(1, 50, 100), Node(2, 100, 100)])


def test_trace_disabled_by_default():
    cl = cluster3()
    res = FluidSimulator(cl).run([Flow("f", 0, 1, 10.0)])
    assert res.trace is None
    with pytest.raises(ValueError):
        bottleneck_report(res, [], cl)


def test_trace_segments_cover_makespan():
    cl = cluster3()
    tasks = [Flow("a", 0, 1, 10.0), Flow("b", 1, 2, 25.0, deps=("a",))]
    res = FluidSimulator(cl).run(tasks, record_trace=True)
    assert res.trace
    assert res.trace[0][0] == 0.0
    assert res.trace[-1][1] == pytest.approx(res.makespan)
    # segments are contiguous and ordered
    for (_, t1a, _), (t0b, _, _) in zip(res.trace, res.trace[1:]):
        assert t0b == pytest.approx(t1a)


def test_node_throughput_matches_rates():
    cl = cluster3()
    tasks = [Flow("a", 0, 1, 10.0), Flow("c", 0, 2, 10.0)]
    res = FluidSimulator(cl).run(tasks, record_trace=True)
    rates = res.trace[0][2]
    # node 0 fans out two flows: aggregate uplink = 100 while both active
    assert rates["a"] + rates["c"] == pytest.approx(100.0)
    assert rates["a"] == pytest.approx(50.0)  # node 1's downlink share


def test_bottleneck_report_identifies_pacing_node():
    cl = cluster3()
    tasks = [PipelineFlow("p", (0, 1, 2), 25.0)]
    res = FluidSimulator(cl).run(tasks, record_trace=True)
    report = bottleneck_report(res, tasks, cl)
    assert report[0]["node"] == 1
    assert report[0]["fraction_of_makespan"] == pytest.approx(1.0)


def test_bottleneck_report_on_cr_plan(fig2):
    """On Figure 2's CR plan the center's downlink is the bottleneck."""
    from repro.repair.centralized import plan_centralized

    plan = plan_centralized(fig2)
    res = FluidSimulator(fig2.cluster).run(plan.tasks, record_trace=True)
    report = bottleneck_report(res, plan.tasks, fig2.cluster)
    assert report[0]["node"] == plan.meta["center"]
