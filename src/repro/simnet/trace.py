"""Post-processing of simulation rate traces.

``FluidSimulator.run(..., record_trace=True)`` keeps the piecewise-constant
rate timeline.  :func:`bottleneck_report` turns it into per-node link
saturation — the quickest way to see *which* link paces a repair and for
how long.
"""

from __future__ import annotations

from repro.cluster.topology import Cluster
from repro.simnet.flows import DelayTask, Task
from repro.simnet.fluid import SimulationResult


def _hops_by_task(tasks: list[Task]) -> dict[str, tuple[tuple[int, int], ...]]:
    return {
        t.task_id: t.hops for t in tasks if not isinstance(t, DelayTask)
    }


def bottleneck_report(
    result: SimulationResult, tasks: list[Task], cluster: Cluster, top: int = 5
) -> list[dict]:
    """Nodes ranked by time spent >= 99% uplink- or downlink-saturated.

    The top entry is "the bottleneck" in the §II sense: the node whose link
    paces the repair.
    """
    if result.trace is None:
        raise ValueError("simulation was run without record_trace=True")
    hops = _hops_by_task(tasks)
    saturated: dict[int, float] = {}
    for t0, t1, rates in result.trace:
        up: dict[int, float] = {}
        down: dict[int, float] = {}
        for tid, rate in rates.items():
            for src, dst in hops.get(tid, ()):
                up[src] = up.get(src, 0.0) + rate
                down[dst] = down.get(dst, 0.0) + rate
        for node, rate in up.items():
            if rate >= 0.99 * cluster[node].uplink:
                saturated[node] = saturated.get(node, 0.0) + (t1 - t0)
        for node, rate in down.items():
            if rate >= 0.99 * cluster[node].downlink:
                saturated[node] = saturated.get(node, 0.0) + (t1 - t0)
    ranked = sorted(saturated.items(), key=lambda kv: -kv[1])[:top]
    return [
        {
            "node": node,
            "saturated_s": seconds,
            "fraction_of_makespan": seconds / result.makespan if result.makespan else 0.0,
        }
        for node, seconds in ranked
    ]
