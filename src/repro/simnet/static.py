"""Static (closed-form) plan evaluation — the paper's §III-B1 model as a
general task-graph evaluator.

Where :class:`~repro.simnet.fluid.FluidSimulator` recomputes max-min rates
at every completion event, this evaluator takes one shortcut: every task's
rate is fixed by the *connection counts of all tasks that could run
concurrently with it* (the paper's Cases 1-3: uplinks divided by fan-out,
downlinks by fan-in).  Tasks then finish at ``start + size/rate`` and starts
honor dependencies.  The result upper-bounds the fluid makespan (rates never
increase as neighbors finish) and equals it whenever all sharing tasks
finish together — which is exactly the situation in the paper's CR and IR
formulas, so on those plans the two backends agree (see tests).

It is cheaper than the fluid simulator — one pass, no events — but not by
much once the solver runs on arrays: 0.73 ms against 1.42 ms (1.9x, on a
2-core Xeon VM) for the RS(64,8) 8-failure IR plan of
``build_scenario(64, 8, 8, wld="WLD-8x", seed=2023)`` (8 chains, 512
hops).  Its use is as a closed-form cross-check of the paper's §III-B1
arithmetic, not as a faster search backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import Cluster
from repro.simnet.flows import DelayTask, Task, validate_tasks


@dataclass
class StaticResult:
    makespan: float
    finish_times: dict[str, float]
    rates: dict[str, float]


class StaticShareEvaluator:
    """Evaluate a task graph with fixed connection-count bandwidth shares."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def _rates(self, tasks: list[Task]) -> dict[str, float]:
        """Per-task rate from global connection counts (paper Cases 1-3).

        Shared rack trunks are handled the same way: a trunk's capacity is
        divided by the number of cross-rack connections traversing it.
        """
        trunks = getattr(self.cluster, "rack_trunks", {})
        out_count: dict[int, int] = {}
        in_count: dict[int, int] = {}
        trunk_out: dict[int, int] = {}
        trunk_in: dict[int, int] = {}
        for t in tasks:
            if isinstance(t, DelayTask):
                continue
            for src, dst in t.hops:
                out_count[src] = out_count.get(src, 0) + 1
                in_count[dst] = in_count.get(dst, 0) + 1
                rs, rd = self.cluster[src].rack, self.cluster[dst].rack
                if rs != rd:
                    trunk_out[rs] = trunk_out.get(rs, 0) + 1
                    trunk_in[rd] = trunk_in.get(rd, 0) + 1
        rates: dict[str, float] = {}
        for t in tasks:
            if isinstance(t, DelayTask):
                continue
            hop_bws = []
            for src, dst in t.hops:
                node_s, node_d = self.cluster[src], self.cluster[dst]
                cross = node_s.rack != node_d.rack
                up = node_s.effective_uplink(cross) / out_count[src]
                down = node_d.effective_downlink(cross) / in_count[dst]
                bw = min(up, down)
                if cross and node_s.rack in trunks:
                    bw = min(bw, trunks[node_s.rack][0] / trunk_out[node_s.rack])
                if cross and node_d.rack in trunks:
                    bw = min(bw, trunks[node_d.rack][1] / trunk_in[node_d.rack])
                hop_bws.append(bw)
            rates[t.task_id] = min(hop_bws)
        return rates

    def run(self, tasks: list[Task]) -> StaticResult:
        by_id = validate_tasks(tasks)
        rates = self._rates(tasks)
        finish: dict[str, float] = {}

        def finish_of(tid: str, stack: tuple[str, ...] = ()) -> float:
            if tid in finish:
                return finish[tid]
            if tid in stack:
                raise ValueError(f"dependency cycle through {tid!r}")
            t = by_id[tid]
            start = max((finish_of(d, stack + (tid,)) for d in t.deps), default=0.0)
            if isinstance(t, DelayTask):
                duration = t.duration_s
            else:
                rate = rates[tid]
                duration = t.size_mb / rate if t.size_mb > 0 else 0.0
            finish[tid] = start + duration
            return finish[tid]

        for tid in by_id:
            finish_of(tid)
        makespan = max(finish.values(), default=0.0)
        return StaticResult(makespan=makespan, finish_times=finish, rates=rates)
