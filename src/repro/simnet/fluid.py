"""Fluid (flow-level) network simulator with max-min fair sharing.

The simulator advances a DAG of :mod:`repro.simnet.flows` tasks through time.
Whenever the active set changes (a task completes and/or dependents start),
rates are recomputed by **progressive filling**: repeatedly find the most
contended resource, fix the fair share of every unfixed flow crossing it, and
subtract.  Resources are per-node uplink / downlink capacities plus optional
per-node cross-rack capacities (the ``tc`` shaping of Experiment 4).

This is the standard fluid approximation of TCP-fair sharing used by
flow-level datacenter simulators; on the paper's plan shapes it reproduces
the closed-form times of §III-B exactly (see tests).

A task list is compiled once (:meth:`FluidSimulator.compile`) to integer ids,
CSR dependency and flow x resource structures; the event loop and the
allocator then work on arrays over tasks and resources.  Simulated times
depend on the float operation order fixed here — docs/ARCHITECTURE.md,
"One compiled problem, one array loop" — and are pinned bit for bit against
the predecessor solver by ``tests/test_fluid_differential.py``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from repro._cbuild import CLibrary
from repro.cluster.topology import Cluster
from repro.simnet.flows import DelayTask, Task, validate_tasks

_EPS = 1e-12


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    makespan: float
    finish_times: dict[str, float]
    start_times: dict[str, float]
    bytes_sent: dict[int, float]  # node -> MB uploaded
    bytes_received: dict[int, float]  # node -> MB downloaded
    cross_rack_mb: float  # total MB that crossed a rack boundary
    n_rate_updates: int
    #: optional rate timeline: list of (t_start, t_end, {flow id: MB/s}),
    #: populated when run(..., record_trace=True)
    trace: list[tuple[float, float, dict[str, float]]] | None = None
    #: unfinished volume (MB, or seconds for delays) per task id when the
    #: run was truncated by ``horizon_s``; empty for complete runs
    remaining_mb: dict[str, float] = field(default_factory=dict)

    def finish_of(self, tag: str) -> float:
        """Latest finish time among tasks in the ``tag`` namespace.

        A task belongs to the namespace when its id *is* ``tag`` or starts
        with ``tag`` followed by the ``:`` delimiter, so ``finish_of("cr")``
        never collects ``"cr2:..."`` or ``"cr_local:..."`` tasks the way a
        bare prefix match would.
        """
        return self.finish_of_each((tag,))[tag]

    def finish_of_each(self, tags) -> dict[str, float]:
        """:meth:`finish_of` for every tag of ``tags`` in one pass over the
        finish times (a scheduler wave asks for one per job and stripe)."""
        wanted = set(tags)
        latest: dict[str, float] = {}
        for tid, t in self.finish_times.items():
            # the namespaces of "a:b:c": itself, "a", "a:", "a:b", "a:b:"
            names = [tid]
            cut = tid.find(":")
            while cut >= 0:
                names += (tid[:cut], tid[: cut + 1])
                cut = tid.find(":", cut + 1)
            for name in wanted.intersection(names):
                latest[name] = max(latest.get(name, t), t)
        missing = wanted.difference(latest)
        if missing:
            raise KeyError(f"no task ids in the {min(missing)!r} namespace")
        return latest

    def tag_finish(self, tasks: list[Task], tag: str) -> float:
        times = [self.finish_times[t.task_id] for t in tasks if t.tag == tag]
        if not times:
            raise KeyError(f"no tasks tagged {tag!r}")
        return max(times)


class _Incidence:
    """Flow x resource incidence (with multiplicity) and its max-min allocator.

    One entry per unit a flow occupies on a resource, **flow-major**
    (``entry_flow`` non-decreasing): a flow crossing a resource twice has two
    entries and counts twice.  ``weights[f]`` implements weighted fair
    sharing: a flow of weight w receives w times the rate of a weight-1
    competitor at a shared bottleneck (background repair is throttled this
    way).  Entry order and the ascending flow order within a resource fix the
    float operation order of :meth:`rates`, and with it every simulated time
    (docs/ARCHITECTURE.md, "Fluid simulation").
    """

    def __init__(self, entry_flow, entry_res, weights, n_res: int):
        self.entry_flow = np.ascontiguousarray(entry_flow, dtype=np.int64)
        self.entry_res = np.ascontiguousarray(entry_res, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        # the compiled kernel indexes with these unchecked
        for ids, bound in ((self.entry_flow, len(self.weights)), (self.entry_res, n_res)):
            if ids.size and not 0 <= ids.min() <= ids.max() < bound:
                raise ValueError(f"incidence id outside [0, {bound})")
        if (self.entry_flow[1:] < self.entry_flow[:-1]).any():
            raise ValueError("incidence entries must be flow-major")
        self.entry_weight = self.weights[self.entry_flow]
        self.n_res = n_res
        # CSR by flow: entries of flow f are flow_ptr[f]:flow_ptr[f + 1]
        self.flow_ptr = _offsets(self.entry_flow, len(self.weights))
        # CSC by resource: the flows on resource r, ascending, each once
        order = np.argsort(self.entry_res, kind="stable")
        res, flow = self.entry_res[order], self.entry_flow[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (res[1:] != res[:-1]) | (flow[1:] != flow[:-1])
        self.res_flows = flow[first]
        self.res_ptr = _offsets(res[first], n_res)
        # what the compiled kernel reads, as its leading C arguments (the
        # int64 / float64 arrays above own the memory and are never rebound)
        self._c_args = (len(self.weights), n_res) + tuple(
            a.ctypes.data
            for a in (self.flow_ptr, self.entry_res, self.entry_weight,
                      self.weights, self.res_ptr, self.res_flows)
        )

    def rates(self, active, caps):
        """Weighted max-min rates (indexed like ``weights``) by progressive
        filling: repeatedly take the resource with the smallest fair share
        per unit weight, fix every unfixed ``active`` flow crossing it at
        that share, and subtract what they consume everywhere they go.
        Every active flow must have at least one entry; none active gives
        all zeros.

        Runs the compiled kernel when this host built it and it passed its
        self-check, else the NumPy loop — bit-identical, nothing selects.
        """
        lib = _KERNEL.load()
        return self._fill_numpy(active, caps) if lib is None else self._fill_c(lib, active, caps)

    def _fill_c(self, lib, active, caps):
        rates = np.zeros(len(self.weights))
        # scratch belongs to the call: the mask and the capacities are
        # copied, then consumed in place as ``unfixed`` and ``left``
        unfixed = np.array(active, dtype=bool)
        left = np.array(caps, dtype=float)
        wsum = np.empty(self.n_res)
        if unfixed.shape != rates.shape or left.shape != wsum.shape:
            raise ValueError("active / caps do not match the incidence")
        stuck = lib.repro_fill(
            *self._c_args,
            unfixed.ctypes.data, left.ctypes.data, wsum.ctypes.data, rates.ctypes.data,
        )
        if stuck:
            raise AssertionError("unfixed flows but no contended resource")
        return rates

    def _fill_numpy(self, active, caps):
        on = active[self.entry_flow]
        wsum = np.bincount(
            self.entry_res[on], weights=self.entry_weight[on], minlength=self.n_res
        )
        left = caps.astype(float)
        rates = np.zeros(len(self.weights))
        unfixed = active.copy()
        n_unfixed = int(np.count_nonzero(unfixed))
        while n_unfixed:
            share = np.where(wsum > _EPS, left / np.maximum(wsum, _EPS), math.inf)
            r = int(share.argmin())
            s = float(share[r])
            if not math.isfinite(s):
                raise AssertionError("unfixed flows but no contended resource")
            fl = self.res_flows[self.res_ptr[r] : self.res_ptr[r + 1]]
            fl = fl[unfixed[fl]]
            if fl.size == 0:  # pragma: no cover - defensive against stale counts
                wsum[r] = 0.0
                continue
            s = max(s, 0.0)
            rates[fl] = s * self.weights[fl]
            unfixed[fl] = False
            n_unfixed -= fl.size
            # the entries of those flows, concatenated in flow order; each
            # consumes rate(f) = s * w(f).  subtract.at applies them one by
            # one: k sequential ``-s`` differ from one ``-k*s`` in the last ulp
            entries = _gather(self.flow_ptr, fl)
            res_idx, entry_w = self.entry_res[entries], self.entry_weight[entries]
            np.subtract.at(left, res_idx, s * entry_w)
            np.maximum(left, 0.0, out=left)
            np.subtract.at(wsum, res_idx, entry_w)
        return rates


def _offsets(keys, n: int):
    """CSR row pointer of ``n`` rows over sorted integer ``keys``."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))), dtype=np.int64)


def _gather(ptr, rows):
    """Concatenated CSR column positions of ``rows``, in the given order."""
    lens = ptr[rows + 1] - ptr[rows]
    offsets = lens.cumsum() - lens  # where each row's run starts in the output
    return (ptr[rows] - offsets).repeat(lens) + np.arange(lens.sum())


#: progressive filling in C, walking ``_Incidence``'s arrays in the float
#: operation order of ``_Incidence._fill_numpy``: each product and each
#: subtraction is its own IEEE double operation.  ``left`` and ``wsum`` never
#: read each other, so updating both per entry equals NumPy's two passes.
_C_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "simulated times need plain IEEE double evaluation (FLT_EVAL_METHOD == 0)"
#endif

/* in: unfixed = the active mask, left = link capacities, rates = zeros;
 * wsum is scratch.  Returns 1 for "unfixed flows but no contended resource". */
int repro_fill(int64_t n_flows, int64_t n_res, const int64_t *flow_ptr,
               const int64_t *entry_res, const double *entry_weight,
               const double *weights, const int64_t *res_ptr,
               const int64_t *res_flows, uint8_t *unfixed, double *left,
               double *wsum, double *rates) {
    int64_t n_unfixed = 0;
    for (int64_t r = 0; r < n_res; r++)
        wsum[r] = 0.0;
    for (int64_t f = 0; f < n_flows; f++) {
        if (!unfixed[f])
            continue;
        n_unfixed++;
        for (int64_t e = flow_ptr[f]; e < flow_ptr[f + 1]; e++)
            wsum[entry_res[e]] += entry_weight[e];
    }
    while (n_unfixed) {
        int64_t best = -1, fixed = 0;
        double s = INFINITY;
        for (int64_t r = 0; r < n_res; r++) { /* argmin: first minimum, NaN wins */
            double share = wsum[r] > 1e-12 ? left[r] / wsum[r] : INFINITY;
            if (share != share) {
                best = r;
                s = share;
                break;
            }
            if (best < 0 || share < s) {
                best = r;
                s = share;
            }
        }
        if (!isfinite(s))
            return 1;
        if (s < 0.0)
            s = 0.0;
        for (int64_t j = res_ptr[best]; j < res_ptr[best + 1]; j++) {
            int64_t f = res_flows[j];
            if (!unfixed[f])
                continue;
            unfixed[f] = 0;
            fixed++;
            rates[f] = s * weights[f];
            for (int64_t e = flow_ptr[f]; e < flow_ptr[f + 1]; e++) {
                left[entry_res[e]] -= s * entry_weight[e];
                wsum[entry_res[e]] -= entry_weight[e];
            }
        }
        if (!fixed) { /* stale count: nothing unfixed crosses this resource */
            wsum[best] = 0.0;
            continue;
        }
        n_unfixed -= fixed;
        for (int64_t r = 0; r < n_res; r++)
            if (left[r] < 0.0)
                left[r] = 0.0;
    }
    return 0;
}
"""
#: the only flag set.  ``-ffp-contract=off`` forbids fusing ``left -= s * w``
#: into one FMA, which rounds once instead of twice and moves finish times
#: whenever a product is inexact; ``-march=native`` / ``-O3`` / ``-ffast-math``
#: license exactly that fusion or reassociation (docs/ARCHITECTURE.md)
_C_FLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]


def _bind_kernel(lib) -> None:
    """Declare ``repro_fill``, then prove it on this host: one fixed problem
    with non-dyadic weights (inexact products, so a fused or reordered build
    shows) must solve ``==`` to the NumPy loop or the kernel stays unbound."""
    lib.repro_fill.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 10
    lib.repro_fill.restype = ctypes.c_int
    flow = np.arange(24)
    inc = _Incidence(
        np.repeat(flow, 3),
        np.stack([flow % 7, (3 * flow + 1) % 7, flow // 4]).T.ravel(),
        np.array([0.3, 1.0, 1.7])[flow % 3],
        n_res=7,
    )
    active, caps = flow % 5 != 0, 10.0 + 7.3 * np.arange(7)
    if not np.array_equal(inc._fill_c(lib, active, caps), inc._fill_numpy(active, caps)):
        raise RuntimeError("self-check failed: kernel and NumPy rates differ")


_KERNEL = CLibrary("fluidfill", _C_SOURCE, 1, [_C_FLAGS], _bind_kernel)


class _Problem:
    """A task list compiled to arrays; see :meth:`FluidSimulator.compile`."""

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
        dep_by = np.repeat(np.arange(n), [len(t.deps) for t in tasks])
        self.n_deps = np.bincount(dep_by, minlength=n)
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

    def __len__(self) -> int:
        return len(self.tasks)


def _by_id(ids: list[str], values, keep) -> dict[str, float]:
    """task id -> Python float for the tasks selected by the ``keep`` mask."""
    values = values.tolist()
    return {ids[i]: values[i] for i in np.flatnonzero(keep).tolist()}


def _per_node(nodes, mb) -> dict[int, float]:
    """node -> MB summed in input order (bincount accumulates sequentially)."""
    ids, pos = np.unique(nodes, return_inverse=True)
    return dict(zip(ids.tolist(), np.bincount(pos, weights=mb, minlength=len(ids)).tolist()))


class FluidSimulator:
    """Simulate a task DAG over a cluster's bandwidth resources."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def compile(self, tasks: list[Task]) -> _Problem:
        """Validate ``tasks`` and lower them to the solver's array form.

        The result can be passed to :meth:`run` any number of times (runs
        share no state); it captures link capacities as of now.  Raises
        ``ValueError`` on duplicate ids or unknown dependencies.
        """
        return _Problem(tasks, self.cluster)

    @staticmethod
    def allocator_info() -> dict:
        """Which allocator serves this process — ``kind`` is ``"c"`` or
        ``"numpy"`` — with the kernel's ``.so`` path and, after a silent
        fallback, the build / load / self-check error that caused it."""
        info = _KERNEL.build_info()
        return {"kind": "c" if info["available"] else "numpy", **info}

    # -------------------------------------------------------------- #
    @staticmethod
    def _emit_spans(tracer, label, prob, volume, start_times, finish_times, makespan) -> None:
        """Record a finished schedule as sim-domain spans on ``tracer``.

        Flows are attributed to their first hop's source node; overlap is
        expected (concurrent flows), so these are interval spans exported as
        Chrome async events — see :mod:`repro.obs.export`.
        """
        root = tracer.add(
            label, actor="net", cat="sim", t0=0.0, t1=makespan,
            makespan=makespan, tasks=len(prob),
        )
        for t, size in zip(prob.tasks, volume.tolist()):
            if isinstance(t, DelayTask):
                actor, cat = "net", "sim-delay"
                args = {"duration_s": size}
            else:
                actor, cat = f"node:{t.hops[0][0]}", "sim-transfer"
                args = {
                    "size_mb": size,
                    "hops": [list(h) for h in t.hops],
                    "tag": getattr(t, "tag", ""),
                }
            tracer.add(
                t.task_id, actor=actor, cat=cat,
                t0=start_times[t.task_id], t1=finish_times[t.task_id], parent=root, **args,
            )

    def run(
        self,
        tasks: list[Task] | _Problem,
        events=(),
        record_trace: bool = False,
        tracer=None,
        trace_label: str = "simulate",
        horizon_s: float | None = None,
        sizes=None,
    ) -> SimulationResult:
        """Simulate all tasks; returns completion times and traffic stats.

        ``tasks`` is a task list or the result of :meth:`compile` on one.
        ``sizes`` (one non-negative float per task, in task order) replaces
        every task's volume — ``size_mb``, or ``duration_s`` for a delay —
        for this run only: split search scores one compiled DAG at many
        split ratios this way instead of rebuilding the tasks.

        ``events`` is an optional iterable of
        :class:`repro.simnet.dynamic.BandwidthEvent`; rates are re-solved at
        each event boundary (dynamic workloads, §VII of the paper).
        ``record_trace`` keeps the piecewise-constant rate timeline for
        post-hoc analysis (see :mod:`repro.simnet.trace`).

        ``horizon_s`` truncates the run at the given simulated time: the
        state integrated so far is returned with the unfinished volume per
        task in :attr:`SimulationResult.remaining_mb` (the adaptive engine
        uses this to measure progress up to a re-plan boundary).

        ``tracer`` (a :class:`repro.obs.Tracer`) records the simulated
        timeline post-hoc as sim-domain spans: one root span named
        ``trace_label`` covering ``[0, makespan)`` plus one span per task at
        its simulated start/finish times.  The simulation itself is
        unaffected — timestamps are read from the finished schedule.
        """
        prob = tasks if isinstance(tasks, _Problem) else self.compile(tasks)
        n = len(prob)
        if sizes is None:
            volume = prob.base
        else:
            volume = np.asarray(sizes, dtype=float)
            if volume.shape != (n,):
                raise ValueError(f"sizes has shape {volume.shape}, expected ({n},)")
            if not (volume >= 0).all():
                raise ValueError("sizes must be non-negative")
        trace: list[tuple[float, float, dict[str, float]]] | None = (
            [] if record_trace else None
        )
        # events are drained through an index cursor: ``list.pop(0)`` is
        # O(n) per event, quadratic over the dense event streams the repair
        # scheduler emits (one boundary per job arrival / bandwidth change)
        pending_events = sorted(events, key=lambda e: e.time)
        next_event = 0
        # BandwidthEvent.capacity_updates speaks string keys ("up:3")
        res_of_key = (
            {f"{kind}:{ident}": r for r, (kind, ident) in enumerate(prob.res_names)}
            if pending_events
            else {}
        )
        caps = prob.caps.copy()
        is_delay, ids = prob.is_delay, prob.ids
        is_flow = ~is_delay
        remaining = volume.copy()
        n_deps_left = prob.n_deps.copy()
        active = n_deps_left == 0
        start = np.full(n, np.nan)
        start[active] = 0.0
        finish = np.full(n, np.nan)
        now = 0.0
        n_updates = 0

        act = np.flatnonzero(active)
        while act.size:
            if horizon_s is not None and now >= horizon_s - _EPS:
                break
            # apply any bandwidth events that are due
            while next_event < len(pending_events) and pending_events[next_event].time <= now + _EPS:
                for key, cap in pending_events[next_event].capacity_updates().items():
                    if key in res_of_key:
                        caps[res_of_key[key]] = cap
                next_event += 1
            # complete all zero-remaining tasks immediately (no time passes)
            # and start the dependents they were the last to block
            done = act[remaining[act] <= _EPS]
            if done.size:
                active[done] = False
                finish[done] = now
                unblocked = prob.dependents[_gather(prob.dep_ptr, done)]
                np.subtract.at(n_deps_left, unblocked, 1)
                ready = unblocked[n_deps_left[unblocked] == 0]
                active[ready] = True
                start[ready] = now
                act = np.flatnonzero(active)
                continue
            flows = active & is_flow
            rate = prob.incidence.rates(flows, caps)
            rate[is_delay] = 1.0
            n_updates += 1
            # time to the first completion; a starved flow (rate 0) waits for
            # another completion to free capacity
            left, speed = remaining[act], rate[act]
            moving = speed > _EPS
            if not moving.any():
                raise AssertionError("deadlock: active flows but no progress possible")
            dt = float((left[moving] / speed[moving]).min())
            # never integrate past the next bandwidth event or the horizon
            if next_event < len(pending_events):
                dt = min(dt, max(pending_events[next_event].time - now, _EPS))
            if horizon_s is not None:
                dt = min(dt, max(horizon_s - now, _EPS))
            if trace is not None:
                trace.append((now, now + dt, _by_id(ids, rate, flows)))
            # advance
            left = left - speed * dt
            left[left < _EPS] = 0.0
            remaining[act] = left
            now += dt

        finished = ~np.isnan(finish)
        if horizon_s is None and not finished.all():
            raise AssertionError("simulation ended with unscheduled tasks (dependency cycle?)")

        finish_times = _by_id(ids, finish, finished)
        start_times = _by_id(ids, start, ~np.isnan(start))
        if tracer is not None:
            self._emit_spans(tracer, trace_label, prob, volume, start_times, finish_times, now)

        # traffic of the finished tasks, summed in task order
        sent = finished[prob.hop_task]
        mb = volume[prob.hop_task[sent]]
        return SimulationResult(
            makespan=now,
            finish_times=finish_times,
            start_times=start_times,
            bytes_sent=_per_node(prob.hop_src[sent], mb),
            bytes_received=_per_node(prob.hop_dst[sent], mb),
            cross_rack_mb=float(mb[prob.hop_cross[sent]].sum()),
            n_rate_updates=n_updates,
            trace=trace,
            remaining_mb=_by_id(ids, remaining, ~finished) if horizon_s is not None else {},
        )
