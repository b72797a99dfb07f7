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
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro._cbuild import CLibrary
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.simnet.dynamic import BandwidthEvent
from repro.simnet.flows import DelayTask, Flow, PipelineFlow, Task, validate_tasks

_EPS = 1e-12
#: the resource kinds of one hop, in the order its entries are listed
_RES_KINDS = ("up", "down", "xup", "xdown", "rup", "rdown")


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
    """Flow x resource incidence (with multiplicity) and the NumPy allocator.

    One entry per unit a flow occupies on a resource, **flow-major**
    (``entry_flow`` non-decreasing): a flow crossing a resource twice has two
    entries and counts twice.  ``weights[f]`` implements weighted fair
    sharing: a flow of weight w receives w times the rate of a weight-1
    competitor at a shared bottleneck (background repair is throttled this
    way).  Entry order and the ascending flow order within a resource fix the
    float operation order of :meth:`_fill_numpy`, and with it every simulated
    time (docs/ARCHITECTURE.md, "Fluid simulation").
    """

    def __init__(self, entry_flow, entry_res, weights, n_res: int):
        self.entry_flow = np.ascontiguousarray(entry_flow, dtype=np.int64)
        self.entry_res = np.ascontiguousarray(entry_res, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        # the compiled loop indexes with these unchecked
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

    def _fill_numpy(self, active, caps):
        """Weighted max-min rates (indexed like ``weights``) of the flows in
        the ``active`` mask by progressive filling: repeatedly take the
        resource with the smallest fair share per unit weight, fix every
        unfixed active flow crossing it at that share, and subtract what
        they consume everywhere they go."""
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
                raise AssertionError(_STUCK)
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


_STUCK = "unfixed flows but no contended resource"
_DEADLOCK = "deadlock: active flows but no progress possible"

#: the event loop in C: ``_loop_numpy`` step for step over a sorted
#: active-id list, in the same float operation order — each product and each
#: subtraction is its own IEEE double operation.  ``left`` and ``wsum`` never
#: read each other, so updating both per entry equals NumPy's two passes.
_C_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if FLT_EVAL_METHOD != 0
#error "simulated times need plain IEEE double evaluation (FLT_EVAL_METHOD == 0)"
#endif

#define EPS 1e-12

/* repro_run's return codes; _loop_c mirrors them */
enum { RUN_DONE, RUN_HORIZON, RUN_EVENT, RUN_STUCK, RUN_DEADLOCK };

static int ascending(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Progressive filling over the flows of act[0..n_act) (ascending; delays
 * skipped): sets rate[f] of each.  A counting sort over the ascending list
 * buckets the active flows by resource, ascending and each once, so a call
 * costs O(active entries + rounds x resources).  Returns 1 for "unfixed
 * flows but no contended resource". */
static int fill(int64_t n_res, const int64_t *act, int64_t n_act,
                const uint8_t *is_delay, const int64_t *flow_ptr,
                const int64_t *entry_res, const double *entry_weight,
                const double *weights, const double *caps, double *rate,
                uint8_t *unfixed, double *left, double *wsum, int64_t *bptr,
                int64_t *bend, int64_t *bflows) {
    int64_t n_unfixed = 0;
    bptr[0] = 0;
    for (int64_t r = 0; r < n_res; r++) {
        left[r] = caps[r];
        wsum[r] = 0.0;
        bptr[r + 1] = 0;
    }
    for (int64_t i = 0; i < n_act; i++) {
        int64_t f = act[i];
        if (is_delay[f])
            continue;
        unfixed[f] = 1;
        n_unfixed++;
        for (int64_t e = flow_ptr[f]; e < flow_ptr[f + 1]; e++) {
            wsum[entry_res[e]] += entry_weight[e];
            bptr[entry_res[e] + 1]++;
        }
    }
    for (int64_t r = 0; r < n_res; r++) {
        bptr[r + 1] += bptr[r];
        bend[r] = bptr[r];
    }
    for (int64_t i = 0; i < n_act; i++) {
        int64_t f = act[i];
        if (is_delay[f])
            continue;
        /* a flow's entries are walked together: a repeat is the bucket's last */
        for (int64_t e = flow_ptr[f]; e < flow_ptr[f + 1]; e++) {
            int64_t r = entry_res[e];
            if (bend[r] == bptr[r] || bflows[bend[r] - 1] != f)
                bflows[bend[r]++] = f;
        }
    }
    while (n_unfixed) {
        int64_t best = -1, fixed = 0;
        double s = INFINITY;
        for (int64_t r = 0; r < n_res; r++) { /* argmin: first minimum, NaN wins */
            double share = wsum[r] > EPS ? left[r] / wsum[r] : INFINITY;
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
        for (int64_t j = bptr[best]; j < bend[best]; j++) {
            int64_t f = bflows[j];
            if (!unfixed[f])
                continue;
            unfixed[f] = 0;
            fixed++;
            rate[f] = s * weights[f];
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

/* Advance the run until the active set empties (RUN_DONE), the clock
 * reaches the horizon (RUN_HORIZON) or an event is due (RUN_EVENT) — all
 * three at the loop top, where re-entry resumes.  st = [n_act, n_updates];
 * clock = [now, next event time, horizon], a NaN time being none: it
 * compares false, so it neither fires nor clamps. */
int repro_run(int64_t n_res, const uint8_t *is_delay, const int64_t *dep_ptr,
              const int64_t *dependents, const int64_t *flow_ptr,
              const int64_t *entry_res, const double *entry_weight,
              const double *weights, const double *caps, double *remaining,
              int64_t *n_deps_left, double *start, double *finish,
              int64_t *act, int64_t *st, double *clock, double *rate,
              uint8_t *unfixed, double *left, double *wsum, int64_t *bptr,
              int64_t *bend, int64_t *bflows, int64_t *ready) {
    int64_t n_act = st[0];
    double now = clock[0];
    const double t_event = clock[1], horizon = clock[2];
    int code;
    for (;;) {
        if (!n_act) {
            code = RUN_DONE;
            break;
        }
        if (now >= horizon - EPS) {
            code = RUN_HORIZON;
            break;
        }
        if (t_event <= now + EPS) {
            code = RUN_EVENT;
            break;
        }
        /* complete the zero-remaining tasks (stable compaction, never a
         * swap) and merge the dependents they were the last to block */
        int64_t kept = 0, n_ready = 0;
        for (int64_t i = 0; i < n_act; i++) {
            int64_t f = act[i];
            if (!(remaining[f] <= EPS)) {
                act[kept++] = f;
                continue;
            }
            finish[f] = now;
            for (int64_t j = dep_ptr[f]; j < dep_ptr[f + 1]; j++) {
                int64_t g = dependents[j];
                if (--n_deps_left[g] == 0) {
                    start[g] = now;
                    ready[n_ready++] = g;
                }
            }
        }
        if (kept < n_act) {
            qsort(ready, (size_t)n_ready, sizeof *ready, ascending);
            for (int64_t i = kept - 1, j = n_ready - 1, k = kept + n_ready - 1; j >= 0; k--)
                act[k] = (i >= 0 && act[i] > ready[j]) ? act[i--] : ready[j--];
            n_act = kept + n_ready;
            continue;
        }
        if (fill(n_res, act, n_act, is_delay, flow_ptr, entry_res, entry_weight,
                 weights, caps, rate, unfixed, left, wsum, bptr, bend, bflows)) {
            code = RUN_STUCK;
            break;
        }
        st[1]++;
        /* time to the first completion; a starved flow waits */
        double dt = INFINITY;
        int moving = 0;
        for (int64_t i = 0; i < n_act; i++) {
            int64_t f = act[i];
            double speed = is_delay[f] ? 1.0 : rate[f];
            if (speed > EPS) {
                double t = remaining[f] / speed;
                if (!moving || t < dt)
                    dt = t;
                moving = 1;
            }
        }
        if (!moving) {
            code = RUN_DEADLOCK;
            break;
        }
        /* dt = min(dt, max(limit - now, EPS)), Python's min / max exactly */
        double cap = t_event - now;
        cap = EPS > cap ? EPS : cap;
        if (cap < dt)
            dt = cap;
        cap = horizon - now;
        cap = EPS > cap ? EPS : cap;
        if (cap < dt)
            dt = cap;
        for (int64_t i = 0; i < n_act; i++) {
            int64_t f = act[i];
            double left_f = remaining[f] - (is_delay[f] ? 1.0 : rate[f]) * dt;
            remaining[f] = left_f < EPS ? 0.0 : left_f;
        }
        now += dt;
    }
    st[0] = n_act;
    clock[0] = now;
    return code;
}
"""
#: the only flag set.  ``-ffp-contract=off`` forbids fusing ``left -= s * w``
#: into one FMA, which rounds once instead of twice and moves finish times
#: whenever a product is inexact; ``-march=native`` / ``-O3`` / ``-ffast-math``
#: license exactly that fusion or reassociation (docs/ARCHITECTURE.md)
_C_FLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
_RUN_EVENT = 2
_RUN_ERRORS = {3: _STUCK, 4: _DEADLOCK}


def _bind_kernel(lib) -> None:
    """Declare ``repro_run``, then prove it on this host: one fixed problem
    must solve ``==`` to the NumPy loop or the kernel stays unbound.  Its
    weights are non-dyadic (inexact products, so a fused or reordered build
    shows); it has a delay, a two-level dependency chain, a task whose two
    dependencies finish at the same instant, a bandwidth event and a horizon.
    """
    lib.repro_run.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 23
    lib.repro_run.restype = ctypes.c_int
    cluster = Cluster(Node(i, 100.0 + 7.3 * (i % 3), 90.0 + 3.1 * i) for i in range(6))
    tasks = [
        Flow("a", 0, 2, 24.0, weight=0.3),  # a and b are mirror images
        Flow("b", 3, 2, 24.0, weight=0.3),
        Flow("c", 0, 4, 40.0, weight=1.7),
        Flow("d", 3, 5, 40.0, weight=1.7),
        DelayTask("z", 0.37, deps=("c",)),
        PipelineFlow("e", (2, 1, 5), 11.1, deps=("a", "b")),
        Flow("f", 1, 0, 7.7, deps=("e", "z"), weight=0.3),
    ]
    prob = _Problem(tasks, cluster)
    events = [BandwidthEvent(0.21, 2, downlink=55.5)]
    want = _Run(prob, prob.base, events, None).advance(1.25).result()
    if _Run(prob, prob.base, events, lib).advance(1.25).result() != want:
        raise RuntimeError("self-check failed: compiled and NumPy loops differ")


_KERNEL = CLibrary("fluidloop", _C_SOURCE, 1, [_C_FLAGS], _bind_kernel)


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
        dep_by = np.repeat(np.arange(n, dtype=np.int64), [len(t.deps) for t in tasks])
        self.n_deps = np.bincount(dep_by, minlength=n).astype(np.int64)
        order = np.argsort(dep_of, kind="stable")
        self.dependents = dep_by[order]
        self.dep_ptr = _offsets(dep_of[order], n)
        # the hop table: every flow's node path, flattened; a hop starts at
        # each path position but the last
        flows = np.flatnonzero(~self.is_delay)
        paths = [t.path if isinstance(t, PipelineFlow) else (t.src, t.dst)
                 for t in tasks if not isinstance(t, DelayTask)]
        path_len = np.fromiter(map(len, paths), np.int64, len(paths))
        path_node = np.fromiter(itertools.chain.from_iterable(paths), np.int64, int(path_len.sum()))
        hop_at = np.ones(len(path_node), dtype=bool)
        hop_at[np.cumsum(path_len) - 1] = False
        hop_at = np.flatnonzero(hop_at)
        # node attributes, gathered once per node the hops touch
        self.nodes, node_at = np.unique(path_node, return_inverse=True)
        node = [cluster[v] for v in self.nodes.tolist()]
        racks, rack_at = np.unique([v.rack for v in node], return_inverse=True)
        trunks = getattr(cluster, "rack_trunks", {})
        trunk = [trunks.get(r, (None, None)) for r in racks.tolist()]
        width = len(node)
        pad = [None] * (width - len(racks))
        # kind x (node | rack) slot -> capacity, None where there is no resource
        table = [[v.uplink for v in node], [v.downlink for v in node],
                 [v.cross_uplink for v in node], [v.cross_downlink for v in node],
                 [t[0] for t in trunk] + pad, [t[1] for t in trunk] + pad]
        has = np.array([[c is not None for c in row] for row in table], dtype=bool)
        cap_of = np.array([[0.0 if c is None else c for c in row] for row in table], dtype=float)
        # per hop, the up/down/xup/xdown/rup/rdown slots it uses, each a key
        # kind * width + slot into cap_of
        src, dst = node_at[hop_at], node_at[hop_at + 1]
        cross = rack_at[src] != rack_at[dst]
        key = np.stack((src, dst, src, dst, rack_at[src], rack_at[dst]), axis=1)
        key += np.arange(len(_RES_KINDS)) * width
        used = has.ravel()[key]
        used[:, 2:] &= cross[:, None]
        key = key[used]
        # resources get integer ids in first-appearance order (tasks in input
        # order, hops in path order, up/down/xup/xdown/rup/rdown within a
        # hop): the order decides argmin ties between equally loaded links.
        # Keys are bounded, so each one's first entry is a minimum.at, not a sort
        first = np.full(cap_of.size, len(key), np.int64)
        np.minimum.at(first, key, np.arange(len(key)))
        res_key = np.flatnonzero(first < len(key))
        res_key = res_key[np.argsort(first[res_key])]
        res_id = np.empty(cap_of.size, np.int64)
        res_id[res_key] = np.arange(len(res_key))
        res_key = res_key.tolist()
        idents = (self.nodes.tolist(), racks.tolist())  # of a node kind, a rack kind
        self.res_names = [(_RES_KINDS[kind], idents[kind >= 4][slot])
                          for kind, slot in (divmod(r, width) for r in res_key)]
        self.caps = cap_of.ravel()[res_key]
        self.hop_task = np.repeat(flows, path_len - 1)
        weights = np.fromiter((getattr(t, "weight", 1.0) for t in tasks), float, n)
        self.incidence = _Incidence(
            np.repeat(self.hop_task, used.sum(axis=1)), res_id[key], weights, len(res_key)
        )
        # per hop (task, src, dst, crosses a rack boundary) for byte
        # accounting, and its src / dst positions in ``nodes``
        self.hop_src, self.hop_dst = path_node[hop_at], path_node[hop_at + 1]
        self.hop_cross = cross
        self.hop_src_at, self.hop_dst_at = src, dst

    def __len__(self) -> int:
        return len(self.tasks)

    def c_args(self) -> tuple:
        """``repro_run``'s leading arguments: the resource count and the
        problem's read-only arrays (which own the memory and are never
        rebound), looked up once per problem."""
        if "_c_args" not in vars(self):
            inc = self.incidence
            self._c_args = (len(self.caps),) + tuple(
                a.ctypes.data
                for a in (self.is_delay, self.dep_ptr, self.dependents, inc.flow_ptr,
                          inc.entry_res, inc.entry_weight, inc.weights)
            )
        return self._c_args


class _Run:
    """One run of a compiled problem, which can stop and go on.

    :meth:`FluidSimulator.start` makes one.  :meth:`advance` integrates it
    to an instant or to completion, :meth:`rates_at` reads the per-flow
    rates of any interval so far, and :meth:`result` reports the state
    reached.  Both loop bodies keep all their state here — per-task
    ``remaining / n_deps_left / start / finish``, the capacities, the clock,
    the event cursor and the trace — and re-derive the active set from it
    on entry, so a run stopped at event times and resumed is bit-identical
    to one that never stopped (docs/ARCHITECTURE.md, "The loop seam").
    """

    def __init__(self, prob: _Problem, volume, events, lib, record_trace: bool = False):
        n = len(prob)
        self.prob = prob
        self.volume = volume
        #: the bound kernel, or None for the NumPy loop (always, when traced)
        self.lib = None if record_trace else lib
        self.caps = prob.caps.copy()
        self.remaining = volume.copy()
        self.n_deps_left = prob.n_deps.copy()
        self.start = np.full(n, np.nan)
        self.start[self.n_deps_left == 0] = 0.0
        self.finish = np.full(n, np.nan)
        self.now = 0.0
        self.n_updates = 0
        self.trace: list[tuple[float, float, dict[str, float]]] | None = (
            [] if record_trace else None
        )
        # events are drained through an index cursor: ``list.pop(0)`` is
        # O(n) per event, quadratic over the dense event streams the repair
        # scheduler emits (one boundary per job arrival / bandwidth change)
        self.events = sorted(events, key=lambda e: e.time)
        self.next_event = 0
        # BandwidthEvent.capacity_updates speaks string keys ("up:3")
        self.res_of_key = (
            {f"{kind}:{ident}": r for r, (kind, ident) in enumerate(prob.res_names)}
            if self.events
            else {}
        )

    def active(self):
        """Mask of the tasks in progress: started and not finished."""
        return (self.n_deps_left == 0) & np.isnan(self.finish)

    @property
    def done(self) -> bool:
        """Whether no task is in progress (finished, or a dependency cycle)."""
        return not self.active().any()

    def advance(self, until: float | None = None) -> "_Run":
        """Integrate to ``until`` (``horizon_s`` semantics: stop at the
        first loop top at or past it), or with None to completion — where a
        task that never started is a dependency cycle.  Advancing a
        finished run does nothing."""
        if self.lib is None:
            _loop_numpy(self.prob, self, until)
        else:
            _loop_c(self.lib, self.prob, self, until)
        if until is None and np.isnan(self.finish).any():
            raise AssertionError("simulation ended with unscheduled tasks (dependency cycle?)")
        return self

    def rates_at(self, t: float) -> dict[str, float]:
        """flow id -> rate over the interval containing instant ``t``.

        One fill over the flows with ``start <= t < finish``, at the
        capacities in force at ``t`` — what the loop filled there.  At the
        clock (or less than ``1e-12`` s past it) the zero-time work due now
        is settled first, as the next loop top would do it (:meth:`settle`).
        A run is read at most up to its clock, unless it is done.
        """
        if t >= self.now:
            if t > self.now + _EPS and not self.done:
                raise ValueError(f"t={t} is past the run's clock {self.now}; advance it first")
            self.settle(np.flatnonzero(self.active()))
            caps = self.caps
        else:
            caps = self.prob.caps.copy()
            for ev in self.events[: self.next_event]:
                if ev.time > t + _EPS:
                    break
                self._apply(ev, caps)
        flows = ~self.prob.is_delay & (self.start <= t) & ~(self.finish <= t)
        return _by_id(self.prob.ids, self.prob.incidence._fill_numpy(flows, caps), flows)

    def result(self) -> SimulationResult:
        """The state reached: finish / start times so far, the traffic of
        the finished tasks, and the unfinished volume per task."""
        prob = self.prob
        finished = ~np.isnan(self.finish)
        if finished.all():  # complete: every task in task order, no mask
            sent = slice(None)
            finish_times = dict(zip(prob.ids, self.finish.tolist()))
            start_times = dict(zip(prob.ids, self.start.tolist()))
            remaining_mb = {}
        else:
            sent = finished[prob.hop_task]
            finish_times = _by_id(prob.ids, self.finish, finished)
            start_times = _by_id(prob.ids, self.start, ~np.isnan(self.start))
            remaining_mb = _by_id(prob.ids, self.remaining, ~finished)
        # traffic of the finished tasks, summed in task order
        mb = self.volume[prob.hop_task[sent]]
        return SimulationResult(
            makespan=self.now,
            finish_times=finish_times,
            start_times=start_times,
            bytes_sent=_per_node(prob.nodes, prob.hop_src_at[sent], mb),
            bytes_received=_per_node(prob.nodes, prob.hop_dst_at[sent], mb),
            cross_rack_mb=float(mb[prob.hop_cross[sent]].sum()),
            n_rate_updates=self.n_updates,
            trace=None if self.trace is None else list(self.trace),
            remaining_mb=remaining_mb,
        )

    def next_event_time(self) -> float | None:
        """When the next unapplied event fires; None when none is left."""
        return self.events[self.next_event].time if self.next_event < len(self.events) else None

    def apply_due_events(self) -> None:
        """Apply every bandwidth event due at ``now``."""
        while self.next_event < len(self.events) and self.events[self.next_event].time <= self.now + _EPS:
            self._apply(self.events[self.next_event], self.caps)
            self.next_event += 1

    def _apply(self, event, caps) -> None:
        """Write ``event``'s new capacities into ``caps``."""
        for key, cap in event.capacity_updates().items():
            if key in self.res_of_key:
                caps[self.res_of_key[key]] = cap

    def settle(self, act):
        """The zero-time work due at ``now``, as every loop top does it:
        apply the due events, then complete the zero-remaining tasks among
        the active ids ``act`` and start the dependents they were the last
        to block, until none is left.  Returns the active ids after it —
        ``act`` itself when nothing completed."""
        self.apply_due_events()
        prob, now = self.prob, self.now
        while (done := act[self.remaining[act] <= _EPS]).size:
            self.finish[done] = now
            unblocked = prob.dependents[_gather(prob.dep_ptr, done)]
            np.subtract.at(self.n_deps_left, unblocked, 1)
            self.start[unblocked[self.n_deps_left[unblocked] == 0]] = now
            act = np.flatnonzero(self.active())
        return act


def _loop_numpy(prob: _Problem, run: _Run, until) -> None:
    """The event loop on a host without the compiled one, and for a traced
    run: each step is a vector expression over the active set."""
    is_delay, remaining = prob.is_delay, run.remaining
    is_flow = ~is_delay
    active = run.active()
    act, flows = np.flatnonzero(active), active & is_flow
    while act.size:
        if until is not None and run.now >= until - _EPS:
            break
        settled = run.settle(act)
        if settled is not act:  # tasks completed: the active set changed
            act, flows = settled, run.active() & is_flow
            continue
        now = run.now
        rate = prob.incidence._fill_numpy(flows, run.caps)
        rate[is_delay] = 1.0
        run.n_updates += 1
        # time to the first completion; a starved flow (rate 0) waits for
        # another completion to free capacity
        left, speed = remaining[act], rate[act]
        moving = speed > _EPS
        if not moving.any():
            raise AssertionError(_DEADLOCK)
        dt = float((left[moving] / speed[moving]).min())
        # never integrate past the next bandwidth event or the horizon
        t_event = run.next_event_time()
        if t_event is not None:
            dt = min(dt, max(t_event - now, _EPS))
        if until is not None:
            dt = min(dt, max(until - now, _EPS))
        if run.trace is not None:
            run.trace.append((now, now + dt, _by_id(prob.ids, rate, flows)))
        # advance
        left = left - speed * dt
        left[left < _EPS] = 0.0
        remaining[act] = left
        run.now = now + dt


def _loop_c(lib, prob: _Problem, run: _Run, until) -> None:
    """The event loop in ``repro_run``, re-entered from Python only to apply
    due events."""
    n, n_res = len(prob), len(prob.caps)
    first = np.flatnonzero(run.active())
    act = np.zeros(n, np.int64)  # room for every task; the C loop keeps it sorted
    act[: first.size] = first
    st = np.array([first.size, 0], dtype=np.int64)
    clock = np.array([run.now, math.nan, math.nan if until is None else until])
    scratch = (  # rate, unfixed, left, wsum, bucket ptr / end / flows, ready
        np.empty(n), np.zeros(n, np.uint8), np.empty(n_res), np.empty(n_res),
        np.empty(n_res + 1, np.int64), np.empty(n_res, np.int64),
        np.empty(len(prob.incidence.entry_res), np.int64), np.empty(n, np.int64),
    )
    args = prob.c_args() + tuple(
        a.ctypes.data
        for a in (run.caps, run.remaining, run.n_deps_left, run.start, run.finish,
                  act, st, clock, *scratch)
    )
    while True:
        t_event = run.next_event_time()
        clock[1] = math.nan if t_event is None else t_event
        code = lib.repro_run(*args)
        run.now = float(clock[0])
        if code == _RUN_EVENT:
            run.apply_due_events()
        elif code in _RUN_ERRORS:
            raise AssertionError(_RUN_ERRORS[code])
        else:
            break
    run.n_updates += int(st[1])


def _by_id(ids: list[str], values, keep) -> dict[str, float]:
    """task id -> Python float for the tasks selected by the ``keep`` mask."""
    values = values.tolist()
    return {ids[i]: values[i] for i in np.flatnonzero(keep).tolist()}


def _per_node(nodes, at, mb) -> dict[int, float]:
    """node -> MB summed in input order (bincount accumulates sequentially)
    over positions ``at`` into the ascending ``nodes``, for the nodes that
    occur."""
    sums = np.bincount(at, weights=mb, minlength=len(nodes))
    occurs = np.bincount(at, minlength=len(nodes)) > 0
    return dict(zip(nodes[occurs].tolist(), sums[occurs].tolist()))


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
    def _emit_spans(tracer, label, tasks, sizes, res) -> None:
        """Record ``res``, a finished schedule of ``tasks`` moving ``sizes``,
        as sim-domain spans on ``tracer``.

        Flows are attributed to their first hop's source node; overlap is
        expected (concurrent flows), so these are interval spans exported as
        Chrome async events — see :mod:`repro.obs.export`.
        """
        root = tracer.add(
            label, actor="net", cat="sim", t0=0.0, t1=res.makespan,
            makespan=res.makespan, tasks=len(tasks),
        )
        for t, size in zip(tasks, sizes):
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
                t0=res.start_times[t.task_id], t1=res.finish_times[t.task_id], parent=root,
                **args,
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
        task in :attr:`SimulationResult.remaining_mb`.  A run that must
        stop and go on is :meth:`start`'s.

        ``tracer`` (a :class:`repro.obs.Tracer`) records the simulated
        timeline post-hoc as sim-domain spans: one root span named
        ``trace_label`` covering ``[0, makespan)`` plus one span per task at
        its simulated start/finish times.  The simulation itself is
        unaffected — timestamps are read from the finished schedule.
        """
        run = self._start(tasks, events, sizes, record_trace)
        res = run.advance(horizon_s).result()
        if tracer is not None:
            self._emit_spans(tracer, trace_label, run.prob.tasks, run.volume.tolist(), res)
        return res

    def start(self, tasks: list[Task] | _Problem, events=(), sizes=None) -> _Run:
        """A run of ``tasks`` at time 0 that :meth:`~_Run.advance` moves on.

        Same inputs as :meth:`run`; ``start(...).advance(h).result() ==
        run(..., horizon_s=h)``.  In between, the run can pause at any
        instant, report the rates in force (:meth:`~_Run.rates_at`) and its
        state so far (:meth:`~_Run.result`), and resume: the adaptive
        engine watches one run from event boundary to event boundary.
        """
        return self._start(tasks, events, sizes, False)

    def _start(self, tasks, events, sizes, record_trace: bool) -> _Run:
        prob = tasks if isinstance(tasks, _Problem) else self.compile(tasks)
        if sizes is None:
            volume = prob.base
        else:
            volume = np.asarray(sizes, dtype=float)
            if volume.shape != (len(prob),):
                raise ValueError(f"sizes has shape {volume.shape}, expected ({len(prob)},)")
            if not np.isfinite(volume).all() or (volume < 0).any():
                raise ValueError("sizes must be non-negative and finite")
        return _Run(prob, volume, events, _KERNEL.load(), record_trace)
