"""The pre-array fluid solver, kept verbatim as the test oracle.

This is the dict-and-set event loop, the string-keyed resource table, the two
allocators (dict progressive filling and its first NumPy port) and the
rebuild-per-candidate split search exactly as they stood in
``repro.simnet.fluid`` / ``repro.repair.split`` before the solver was
rewritten around one compiled problem, plus that compiled problem's first
lowering (:func:`reference_compile`, one Python iteration per hop).  Nothing
in ``repro`` imports this module; ``tests/test_fluid_differential.py``
requires the library solver to reproduce it bit for bit.  Do not optimise or
tidy it: its float operation order and its resource numbering *are* the
specification.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

import numpy as np

from repro.cluster.topology import Cluster
from repro.simnet.flows import DelayTask, Task, validate_tasks
from repro.simnet.fluid import SimulationResult, _Incidence, _offsets

_EPS = 1e-12


class _Resource:
    __slots__ = ("capacity", "flows")

    def __init__(self, capacity: float):
        self.capacity = capacity
        self.flows: set[str] = set()


class ReferenceFluidSimulator:
    """The predecessor of :class:`repro.simnet.fluid.FluidSimulator`."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    # -------------------------------------------------------------- #
    def _resources_of(self, task: Task) -> list[tuple[str, float]]:
        """(resource key, capacity) pairs the task occupies, one unit each."""
        out: list[tuple[str, float]] = []
        if isinstance(task, DelayTask):
            return out
        trunks = getattr(self.cluster, "rack_trunks", {})
        for src, dst in task.hops:
            node_s, node_d = self.cluster[src], self.cluster[dst]
            cross = node_s.rack != node_d.rack
            out.append((f"up:{src}", node_s.uplink))
            out.append((f"down:{dst}", node_d.downlink))
            if cross and node_s.cross_uplink is not None:
                out.append((f"xup:{src}", node_s.cross_uplink))
            if cross and node_d.cross_downlink is not None:
                out.append((f"xdown:{dst}", node_d.cross_downlink))
            if cross and node_s.rack in trunks:
                out.append((f"rup:{node_s.rack}", trunks[node_s.rack][0]))
            if cross and node_d.rack in trunks:
                out.append((f"rdown:{node_d.rack}", trunks[node_d.rack][1]))
        return out

    @staticmethod
    def _allocate(
        active: dict[str, list[str]],
        resources: dict[str, _Resource],
        weights: dict[str, float] | None = None,
    ) -> dict[str, float]:
        """Progressive-filling (weighted) max-min rates for the active flows.

        ``active`` maps flow id -> list of resource keys it occupies (with
        multiplicity; a flow occupying a resource twice counts twice).
        ``weights`` implements weighted fair sharing: a flow of weight w
        receives w times the rate of a weight-1 competitor at a shared
        bottleneck (used to throttle background repair traffic).
        Reference implementation; the vectorized allocator must match it.
        """
        weights = weights or {}
        remaining = {r: res.capacity for r, res in resources.items()}
        # count[r] = total weighted units of unfixed flows on r
        count: dict[str, float] = {}
        units: dict[str, dict[str, int]] = {}
        for fid, rkeys in active.items():
            w = weights.get(fid, 1.0)
            u: dict[str, int] = {}
            for r in rkeys:
                u[r] = u.get(r, 0) + 1
            units[fid] = u
            for r, n in u.items():
                count[r] = count.get(r, 0.0) + n * w
        rates: dict[str, float] = {}
        unfixed = set(active)
        # Flows with no network resources (shouldn't happen) get infinite rate.
        for fid in list(unfixed):
            if not units[fid]:
                rates[fid] = math.inf
                unfixed.discard(fid)
        while unfixed:
            # fair share per unit weight on each still-contended resource
            best_r, best_share = None, math.inf
            for r, n in count.items():
                if n <= _EPS:
                    continue
                share = remaining[r] / n
                if share < best_share - _EPS:
                    best_r, best_share = r, share
            if best_r is None:
                raise AssertionError("unfixed flows but no contended resource")
            # fix every unfixed flow occupying the bottleneck resource
            fixed_now = [fid for fid in unfixed if best_r in units[fid]]
            for fid in fixed_now:
                w = weights.get(fid, 1.0)
                rates[fid] = max(best_share * w, 0.0)
                unfixed.discard(fid)
                for r, n in units[fid].items():
                    remaining[r] -= rates[fid] * n
                    if remaining[r] < 0:
                        remaining[r] = 0.0
                    count[r] -= n * w
        return rates

    # -------------------------------------------------------------- #
    class _VectorAllocator:
        """Vectorized progressive filling over a fixed task set.

        The incidence structure (flow x resource, with multiplicity) is
        built once per ``run``; each allocation round then works on NumPy
        arrays — profiling showed the dict-based reference implementation
        (:meth:`ReferenceFluidSimulator._allocate`) dominating simulation time on
        wide-stripe plans (hundreds of flows x hundreds of resources).
        """

        def __init__(
            self,
            flow_tids: list[str],
            task_resources: dict[str, list[str]],
            res_keys: list[str],
            weights: dict[str, float] | None = None,
        ):
            import numpy as np

            self.np = np
            self.flow_tids = flow_tids
            self.flow_index = {tid: i for i, tid in enumerate(flow_tids)}
            self.res_index = {r: i for i, r in enumerate(res_keys)}
            self.n_flows = len(flow_tids)
            self.n_res = len(res_keys)
            weights = weights or {}
            self.weights = np.array(
                [float(weights.get(tid, 1.0)) for tid in flow_tids]
            )
            ef, er = [], []
            for tid in flow_tids:
                fi = self.flow_index[tid]
                for r in task_resources[tid]:
                    ef.append(fi)
                    er.append(self.res_index[r])
            self.entry_flow = np.asarray(ef, dtype=np.int64)
            self.entry_res = np.asarray(er, dtype=np.int64)
            # CSR by flow (entries grouped per flow)
            order = np.argsort(self.entry_flow, kind="stable")
            self.flow_sorted_res = self.entry_res[order]
            counts = np.bincount(self.entry_flow, minlength=self.n_flows)
            self.flow_ptr = np.concatenate([[0], np.cumsum(counts)])
            # CSC by resource (entries grouped per resource)
            rorder = np.argsort(self.entry_res, kind="stable")
            self.res_sorted_flow = self.entry_flow[rorder]
            rcounts = np.bincount(self.entry_res, minlength=self.n_res)
            self.res_ptr = np.concatenate([[0], np.cumsum(rcounts)])

        def allocate(self, active_mask, caps):
            """Weighted max-min rates (array indexed like flow_tids)."""
            np = self.np
            if self.entry_flow.size:
                act_entries = active_mask[self.entry_flow]
                wsum = np.bincount(
                    self.entry_res[act_entries],
                    weights=self.weights[self.entry_flow[act_entries]],
                    minlength=self.n_res,
                )
            else:
                wsum = np.zeros(self.n_res)
            remaining = caps.astype(float).copy()
            rates = np.zeros(self.n_flows)
            unfixed = active_mask.copy()
            n_unfixed = int(unfixed.sum())
            while n_unfixed:
                share = np.where(wsum > _EPS, remaining / np.maximum(wsum, _EPS), math.inf)
                r = int(np.argmin(share))
                s = float(share[r])
                if not math.isfinite(s):
                    raise AssertionError("unfixed flows but no contended resource")
                fl = np.unique(self.res_sorted_flow[self.res_ptr[r] : self.res_ptr[r + 1]])
                fl = fl[unfixed[fl]]
                if fl.size == 0:  # pragma: no cover - defensive against stale counts
                    wsum[r] = 0.0
                    continue
                s = max(s, 0.0)
                rates[fl] = s * self.weights[fl]
                unfixed[fl] = False
                n_unfixed -= int(fl.size)
                res_idx = np.concatenate(
                    [self.flow_sorted_res[self.flow_ptr[f] : self.flow_ptr[f + 1]] for f in fl]
                )
                # each entry of flow f consumes rate(f) = s * w(f)
                entry_w = np.concatenate(
                    [
                        np.full(self.flow_ptr[f + 1] - self.flow_ptr[f], self.weights[f])
                        for f in fl
                    ]
                )
                np.subtract.at(remaining, res_idx, s * entry_w)
                np.maximum(remaining, 0.0, out=remaining)
                np.subtract.at(wsum, res_idx, entry_w)
            return rates

    # -------------------------------------------------------------- #
    def run(
        self,
        tasks: list[Task],
        events=(),
        record_trace: bool = False,
        horizon_s: float | None = None,
    ) -> SimulationResult:
        """Simulate all tasks; returns completion times and traffic stats.

        ``events`` is an optional iterable of
        :class:`repro.simnet.dynamic.BandwidthEvent`; rates are re-solved at
        each event boundary (dynamic workloads, §VII of the paper).
        ``record_trace`` keeps the piecewise-constant rate timeline for
        post-hoc analysis (see :mod:`repro.simnet.trace`).

        ``horizon_s`` truncates the run at the given simulated time: the
        state integrated so far is returned with the unfinished volume per
        task in :attr:`SimulationResult.remaining_mb` (the adaptive engine
        uses this to measure progress up to a re-plan boundary).

        (The library's ``tracer`` / ``trace_label`` span export read the
        finished schedule only and are not part of the oracle.)
        """
        trace: list[tuple[float, float, dict[str, float]]] | None = (
            [] if record_trace else None
        )
        # events are drained through an index cursor: ``list.pop(0)`` is
        # O(n) per event, quadratic over the dense event streams the repair
        # scheduler emits (one boundary per job arrival / bandwidth change)
        pending_events = sorted(events, key=lambda e: e.time)
        next_event = 0
        by_id = validate_tasks(tasks)
        n_deps_left = {tid: len(t.deps) for tid, t in by_id.items()}
        dependents: dict[str, list[str]] = {tid: [] for tid in by_id}
        for tid, t in by_id.items():
            for d in t.deps:
                dependents[d].append(tid)

        remaining: dict[str, float] = {}
        for tid, t in by_id.items():
            if isinstance(t, DelayTask):
                remaining[tid] = t.duration_s
            else:
                remaining[tid] = t.size_mb

        start_times: dict[str, float] = {}
        finish_times: dict[str, float] = {}
        active: set[str] = set()
        now = 0.0

        def activate(tid: str) -> None:
            active.add(tid)
            start_times[tid] = now
            # zero-size tasks complete instantly; handled in the loop below.

        for tid in by_id:
            if n_deps_left[tid] == 0:
                activate(tid)

        import numpy as np

        task_resources: dict[str, list[str]] = {}
        res_caps: dict[str, _Resource] = {}
        for tid, t in by_id.items():
            pairs = self._resources_of(t)
            task_resources[tid] = [key for key, _ in pairs]
            for key, cap in pairs:
                if key not in res_caps:
                    res_caps[key] = _Resource(cap)
        flow_tids = [tid for tid, t in by_id.items() if not isinstance(t, DelayTask)]
        res_keys = list(res_caps)
        task_weights = {
            tid: getattr(t, "weight", 1.0) for tid, t in by_id.items()
        }
        allocator = self._VectorAllocator(flow_tids, task_resources, res_keys, task_weights)
        caps_array = np.array([res_caps[r].capacity for r in res_keys], dtype=float)
        res_pos = {r: i for i, r in enumerate(res_keys)}

        bytes_sent: dict[int, float] = {}
        bytes_received: dict[int, float] = {}
        cross_rack_mb = 0.0
        n_updates = 0

        def account(t: Task) -> None:
            nonlocal cross_rack_mb
            if isinstance(t, DelayTask):
                return
            for src, dst in t.hops:
                bytes_sent[src] = bytes_sent.get(src, 0.0) + t.size_mb
                bytes_received[dst] = bytes_received.get(dst, 0.0) + t.size_mb
                if self.cluster[src].rack != self.cluster[dst].rack:
                    cross_rack_mb += t.size_mb

        while active:
            if horizon_s is not None and now >= horizon_s - _EPS:
                break
            # apply any bandwidth events that are due
            while next_event < len(pending_events) and pending_events[next_event].time <= now + _EPS:
                event = pending_events[next_event]
                next_event += 1
                for key, cap in event.capacity_updates().items():
                    if key in res_caps:
                        res_caps[key].capacity = cap
                        caps_array[res_pos[key]] = cap
            # complete all zero-remaining tasks immediately (no time passes)
            zero = [tid for tid in active if remaining[tid] <= _EPS]
            if zero:
                for tid in zero:
                    active.discard(tid)
                    finish_times[tid] = now
                    account(by_id[tid])
                    for dep in dependents[tid]:
                        n_deps_left[dep] -= 1
                        if n_deps_left[dep] == 0:
                            activate(dep)
                continue
            active_mask = np.zeros(len(flow_tids), dtype=bool)
            any_flow = False
            for tid in active:
                idx = allocator.flow_index.get(tid)
                if idx is not None:
                    active_mask[idx] = True
                    any_flow = True
            if any_flow:
                rate_vec = allocator.allocate(active_mask, caps_array)
                rates = {
                    tid: rate_vec[allocator.flow_index[tid]]
                    for tid in active
                    if tid in allocator.flow_index
                }
            else:
                rates = {}
            n_updates += 1
            # time to the first completion
            dt = math.inf
            for tid in active:
                t = by_id[tid]
                if isinstance(t, DelayTask):
                    dt = min(dt, remaining[tid])
                else:
                    r = rates[tid]
                    if r <= _EPS:
                        continue  # starved this round; another completion frees capacity
                    dt = min(dt, remaining[tid] / r)
            if not math.isfinite(dt):
                raise AssertionError("deadlock: active flows but no progress possible")
            # never integrate past the next bandwidth event or the horizon
            if next_event < len(pending_events):
                dt = min(dt, max(pending_events[next_event].time - now, _EPS))
            if horizon_s is not None:
                dt = min(dt, max(horizon_s - now, _EPS))
            if trace is not None:
                trace.append((now, now + dt, dict(rates)))
            # advance
            for tid in list(active):
                t = by_id[tid]
                if isinstance(t, DelayTask):
                    remaining[tid] -= dt
                else:
                    remaining[tid] -= rates[tid] * dt
                if remaining[tid] < _EPS:
                    remaining[tid] = 0.0
            now += dt

        if horizon_s is None and len(finish_times) != len(by_id):
            raise AssertionError("simulation ended with unscheduled tasks (dependency cycle?)")

        return SimulationResult(
            makespan=now,
            finish_times=finish_times,
            start_times=start_times,
            bytes_sent=bytes_sent,
            bytes_received=bytes_received,
            cross_rack_mb=cross_rack_mb,
            n_rate_updates=n_updates,
            trace=trace,
            remaining_mb=(
                {tid: remaining[tid] for tid in by_id if tid not in finish_times}
                if horizon_s is not None
                else {}
            ),
        )


def array_rates(res_keys, caps, flows, weights=None) -> dict[str, float]:
    """The *library* allocator on an instance in the dict allocator's terms.

    ``flows`` maps flow id -> resource keys (with multiplicity), ``caps``
    resource key -> capacity; every flow is active.  Lets the parity tests
    put one abstract instance through both allocators.
    """
    tids = sorted(flows)
    res_pos = {r: i for i, r in enumerate(res_keys)}
    incidence = _Incidence(
        [i for i, tid in enumerate(tids) for _ in flows[tid]],
        [res_pos[r] for tid in tids for r in flows[tid]],
        [(weights or {}).get(tid, 1.0) for tid in tids],
        len(res_keys),
    )
    rates = incidence._fill_numpy(
        np.ones(len(tids), dtype=bool), np.array([caps[r] for r in res_keys])
    )
    return dict(zip(tids, rates.tolist()))


# ------------------------------------------------------------------ #
# split search as it was: rebuild the task list for every candidate p
# ------------------------------------------------------------------ #
def scaled_split_tasks(
    cr_full: list[Task], ir_full: list[Task], p: float
) -> list[Task]:
    """Tasks for split ``p`` from full-block reference sub-plans.

    Transfer sizes are linear in the sub-block fraction, so the CR sub-plan
    built for the whole block scales by ``p`` and the IR one by ``1 - p`` —
    no need to re-plan per candidate p during the search.
    """
    out: list[Task] = []
    for t in cr_full:
        out.append(t if isinstance(t, DelayTask) else dataclasses.replace(t, size_mb=t.size_mb * p))
    for t in ir_full:
        out.append(t if isinstance(t, DelayTask) else dataclasses.replace(t, size_mb=t.size_mb * (1.0 - p)))
    return out


def reference_search_split(
    build_tasks: Callable[[float], list[Task]],
    cluster: Cluster,
    coarse_points: int = 9,
    refine_rounds: int = 2,
    refine_points: int = 5,
    events=(),
) -> tuple[float, float]:
    """Grid-and-refine minimization of simulated makespan over p in [0, 1].

    Returns ``(best_p, best_makespan)``.  T(p) is piecewise smooth but not
    guaranteed convex under fair sharing, hence grid search instead of
    golden section; total simulations = coarse + rounds * refine.
    """
    sim = ReferenceFluidSimulator(cluster)

    def t_of(p: float) -> float:
        return sim.run(build_tasks(p), events=events).makespan

    ps = list(np.linspace(0.0, 1.0, coarse_points))
    ts = [t_of(p) for p in ps]
    best_i = int(np.argmin(ts))
    best_p, best_t = ps[best_i], ts[best_i]
    lo = ps[max(0, best_i - 1)]
    hi = ps[min(len(ps) - 1, best_i + 1)]
    for _ in range(refine_rounds):
        grid = list(np.linspace(lo, hi, refine_points + 2))[1:-1]
        for p in grid:
            t = t_of(p)
            if t < best_t:
                best_p, best_t = p, t
        span = (hi - lo) / 4
        lo, hi = max(0.0, best_p - span), min(1.0, best_p + span)
    return float(best_p), float(best_t)


# ------------------------------------------------------------------ #
# the compile as it was: one Python iteration per hop
# ------------------------------------------------------------------ #
class ReferenceProblem:
    """``repro.simnet.fluid._Problem``'s lowering before the hop table was
    built with array operations: every array, its dtype and ``res_names``
    of the library's compile must be ``==`` to this one's."""

    def __init__(self, tasks: list[Task], cluster: Cluster):
        index = {tid: i for i, tid in enumerate(validate_tasks(tasks))}
        n = len(tasks)
        self.tasks = list(tasks)
        self.ids = list(index)
        self.is_delay = np.fromiter((isinstance(t, DelayTask) for t in tasks), bool, n)
        #: MB to move, or seconds to wait for a delay (which then advances as
        #: a rate-1.0 flow: ``x * 1.0`` and ``x / 1.0`` are exact)
        self.base = np.fromiter(
            (t.duration_s if isinstance(t, DelayTask) else t.size_mb for t in tasks),
            float, n,
        )
        # dependency DAG: in-degrees plus the dependents of each task as CSR
        dep_of = np.fromiter((index[d] for t in tasks for d in t.deps), np.int64)
        dep_by = np.repeat(np.arange(n, dtype=np.int64), [len(t.deps) for t in tasks])
        self.n_deps = np.bincount(dep_by, minlength=n).astype(np.int64)
        order = np.argsort(dep_of, kind="stable")
        self.dependents = dep_by[order]
        self.dep_ptr = _offsets(dep_of[order], n)
        # resources get integer ids in first-appearance order (tasks in input
        # order, hops in path order, up/down/xup/xdown/rup/rdown within a
        # hop): the order decides argmin ties between equally loaded links
        trunks = getattr(cluster, "rack_trunks", {})
        res_id: dict[tuple[str, int], int] = {}
        caps: list[float] = []
        entry_task: list[int] = []
        entry_res: list[int] = []
        hops: list[tuple[int, int, int, bool]] = []
        for i, t in enumerate(tasks):
            if isinstance(t, DelayTask):
                continue
            for src, dst in t.hops:
                node_s, node_d = cluster[src], cluster[dst]
                cross = node_s.rack != node_d.rack
                used = [("up", src, node_s.uplink), ("down", dst, node_d.downlink)]
                if cross and node_s.cross_uplink is not None:
                    used.append(("xup", src, node_s.cross_uplink))
                if cross and node_d.cross_downlink is not None:
                    used.append(("xdown", dst, node_d.cross_downlink))
                if cross and node_s.rack in trunks:
                    used.append(("rup", node_s.rack, trunks[node_s.rack][0]))
                if cross and node_d.rack in trunks:
                    used.append(("rdown", node_d.rack, trunks[node_d.rack][1]))
                for kind, ident, cap in used:
                    r = res_id.setdefault((kind, ident), len(caps))
                    if r == len(caps):
                        caps.append(cap)
                    entry_task.append(i)
                    entry_res.append(r)
                hops.append((i, src, dst, cross))
        self.res_names = list(res_id)
        self.caps = np.array(caps, dtype=float)
        weights = np.fromiter((getattr(t, "weight", 1.0) for t in tasks), float, n)
        self.incidence = _Incidence(entry_task, entry_res, weights, len(caps))
        # per-hop (task, src, dst, crosses a rack boundary) for byte accounting
        self.hop_task, self.hop_src, self.hop_dst, hop_cross = (
            np.array(hops, dtype=np.int64).reshape(-1, 4).T
        )
        self.hop_cross = hop_cross.astype(bool)


def reference_compile(tasks: list[Task], cluster: Cluster) -> ReferenceProblem:
    """The per-hop lowering of ``tasks`` on ``cluster``."""
    return ReferenceProblem(tasks, cluster)
