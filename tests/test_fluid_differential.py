"""Bit-exact differential: the array solver against its predecessor.

``tests/fluid_reference.py`` holds the dict-and-set solver the library ran
before ``FluidSimulator`` was rewritten around one compiled problem.  The
rewrite kept every float operation in the same order, so all *times* must be
``==`` — not ``approx`` — on arbitrary task graphs; only the per-node byte
counters, which the predecessor summed in ``set[str]`` iteration order, get a
1e-9 tolerance.

Every such comparison runs once per event-loop body: the compiled loop
(``repro_run``) when this host bound it, and the NumPy loop with the kernel's
handle unbound (``tests.conftest.unbound_kernel``).  Weights include 0.3 and
1.7: with dyadic weights every ``s * w`` is exact and a kernel that fuses
``left -= s * w`` into one FMA would pass.
"""

import dataclasses
import os
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.experiments.common import build_scenario
from repro.repair.centralized import add_centralized
from repro.repair.independent import add_independent, build_chain_paths
from repro.repair.hybrid import whole_block
from repro.repair.rackaware import _build_rack_aware_cr, _build_tree_ir
from repro.repair.split import search_split
from repro.simnet.dynamic import BandwidthEvent
from repro.simnet.flows import DelayTask, Flow, PipelineFlow
from repro.simnet import fluid
from repro.simnet.fluid import FluidSimulator, _Incidence
from repro.system.coordinator import Coordinator
from tests.conftest import unbound_kernel
from tests.fluid_reference import (
    ReferenceFluidSimulator,
    reference_compile,
    reference_search_split,
    scaled_split_tasks,
)
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout


KERNEL = FluidSimulator.allocator_info()
#: loop body kind -> context that makes ``FluidSimulator.run`` use it
BODIES = {"numpy": unbound_kernel} | ({"c": nullcontext} if KERNEL["available"] else {})
needs_kernel = pytest.mark.skipif(
    not KERNEL["available"], reason=f"solver kernel unavailable: {KERNEL['error']}"
)


@needs_kernel
def test_the_kernel_is_the_bound_allocator(monkeypatch):
    """On a host with a C compiler the comparisons below cover both loop
    bodies; without one this skip carries the recorded build error."""
    monkeypatch.setattr(fluid, "_loop_numpy", lambda *a: pytest.fail("NumPy loop ran"))
    monkeypatch.setattr(_Incidence, "_fill_numpy", lambda *a: pytest.fail("NumPy fill ran"))
    assert KERNEL["kind"] == "c" and os.path.exists(KERNEL["path"])
    assert FluidSimulator.allocator_info() == KERNEL
    cluster, tasks, events, _ = random_instance(3)
    assert FluidSimulator(cluster).run(tasks, events=events).n_rate_updates > 0


def test_unbinding_the_kernel_runs_the_numpy_loop(numpy_allocator, monkeypatch):
    """What every "numpy" half below relies on: with the handle unbound the
    C body is never entered, and ``allocator_info`` says so."""
    monkeypatch.setattr(fluid, "_loop_c", lambda *a: pytest.fail("kernel ran"))
    assert FluidSimulator.allocator_info()["kind"] == "numpy"
    cluster, tasks, events, _ = random_instance(3)
    assert FluidSimulator(cluster).run(tasks, events=events).n_rate_updates > 0


def random_instance(seed: int):
    """A random cluster, task DAG, event list and horizon from one seed.

    Bandwidths and sizes are drawn from small grids on purpose: equal shares
    and simultaneous completions are where ``argmin`` ties, the ``< 1e-12``
    snap and the zero-remaining path decide the outcome.
    """
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(3, 10))
    n_racks = int(rng.integers(1, 4))
    cross = float(rng.choice([20.0, 50.0])) if n_racks > 1 and rng.random() < 0.5 else None
    cluster = Cluster(
        Node(
            i,
            uplink=float(rng.choice([40.0, 100.0, 100.0, 250.0])),
            downlink=float(rng.choice([40.0, 100.0, 100.0, 250.0])),
            rack=i % n_racks,
            cross_uplink=cross,
            cross_downlink=cross if rng.random() < 0.8 else None,
        )
        for i in range(n_nodes)
    )
    for rack in range(n_racks):
        if n_racks > 1 and rng.random() < 0.4:
            cluster.rack_trunks[rack] = (float(rng.choice([60.0, 150.0])),) * 2
    tasks = []
    for i in range(int(rng.integers(1, 30))):
        earlier = [t.task_id for t in tasks]
        n_deps = int(rng.integers(0, 3)) if earlier else 0
        deps = tuple(rng.choice(earlier, size=min(n_deps, len(earlier)), replace=False))
        size = float(rng.choice([0.0, 1e-13, 8.0, 8.0, 16.0, 64.0, 37.5]))
        weight = float(rng.choice([0.25, 0.3, 1.0, 1.0, 1.7, 4.0]))
        kind = rng.random()
        if kind < 0.15:
            tasks.append(DelayTask(f"d{i}", float(rng.choice([0.0, 0.25, 1.0])), deps=deps))
        elif kind < 0.45 and n_nodes >= 3:
            path = rng.choice(n_nodes, size=int(rng.integers(3, min(n_nodes, 5) + 1)), replace=False)
            tasks.append(
                PipelineFlow(f"job{i % 3}:p{i}", tuple(int(v) for v in path), size, deps=deps, weight=weight)
            )
        else:
            src, dst = (int(v) for v in rng.choice(n_nodes, size=2, replace=False))
            tasks.append(Flow(f"job{i % 3}:f{i}", src, dst, size, deps=deps, weight=weight))
    events = [
        BandwidthEvent(
            time=float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.5])),
            node=int(rng.integers(0, n_nodes + 1)),  # may name a node no task uses
            uplink=float(rng.choice([10.0, 100.0, 400.0])) if rng.random() < 0.7 else None,
            downlink=float(rng.choice([10.0, 100.0, 400.0])) if rng.random() < 0.7 else None,
            cross_uplink=float(rng.choice([5.0, 80.0])) if rng.random() < 0.3 else None,
            cross_downlink=float(rng.choice([5.0, 80.0])) if rng.random() < 0.3 else None,
        )
        for _ in range(int(rng.integers(0, 5)))
    ]
    horizon = float(rng.choice([0.05, 0.4, 1.0, 3.0])) if rng.random() < 0.3 else None
    return cluster, tasks, events, horizon


def volume_bound(cluster, tasks) -> float:
    """No resource finishes its load faster than its capacity carries it:
    max over resources r of (V_r - n_r * 1e-12) / C_r * (1 - 1e-12), where
    V_r is the MB that r's n_r entries carry (a hop crossing r twice counts
    twice).  ``n_r * 1e-12`` is what the solver may snap away as finished
    (a remaining volume under ``1e-12`` is zero), the last factor the
    rounding of ``now += dt``.  Resources are the reference's, not the
    compiled problem's."""
    ref = ReferenceFluidSimulator(cluster)
    mb, n, cap = defaultdict(float), defaultdict(int), {}
    for t in tasks:
        for key, c in ref._resources_of(t):
            mb[key] += t.size_mb
            n[key] += 1
            cap[key] = c
    return max(((mb[r] - n[r] * 1e-12) / cap[r] * (1 - 1e-12) for r in cap), default=0.0)


def assert_same_run(cluster, tasks, events=(), horizon=None):
    """Each loop body, untraced, and a traced run (which takes the NumPy
    loop) against the reference; an event-free complete run also against
    the volume lower bound."""
    ref = ReferenceFluidSimulator(cluster).run(
        tasks, events=events, record_trace=True, horizon_s=horizon
    )
    runs = {"traced": lambda: FluidSimulator(cluster).run(
        tasks, events=events, record_trace=True, horizon_s=horizon
    )}
    for kind, bound in BODIES.items():
        def untraced(bound=bound):
            with bound():
                return FluidSimulator(cluster).run(tasks, events=events, horizon_s=horizon)
        runs[kind] = untraced
    for kind, run in runs.items():
        new = run()
        assert new.makespan == ref.makespan, kind
        assert new.finish_times == ref.finish_times, kind
        assert new.start_times == ref.start_times, kind
        assert new.n_rate_updates == ref.n_rate_updates, kind
        assert new.remaining_mb == ref.remaining_mb, kind
        assert new.trace == (ref.trace if kind == "traced" else None), kind
        assert new.bytes_sent == pytest.approx(ref.bytes_sent, rel=1e-9, abs=1e-9)
        assert new.bytes_received == pytest.approx(ref.bytes_received, rel=1e-9, abs=1e-9)
        assert new.cross_rack_mb == pytest.approx(ref.cross_rack_mb, rel=1e-9, abs=1e-9)
    if not events and horizon is None:
        assert ref.makespan >= volume_bound(cluster, tasks)


@pytest.mark.parametrize("seed", seed_fanout(DEFAULT_MASTER_SEED, 60))
def test_random_dags_match_the_reference_bit_for_bit(seed):
    assert_same_run(*random_instance(seed))


def serve_shaped_instance():
    """A serving wave in miniature: hundreds of no-dependency arrival delays,
    each fanning into chunk flows to a gateway and a decode delay, beside
    chains of background repair flows at weights below 1.  The active set
    is mostly delays."""
    rng = np.random.default_rng(7)
    cluster = Cluster.homogeneous(10, 100.0)
    tasks = []
    for op in range(240):
        gateway = int(rng.integers(10))
        arrival = f"op{op}:arr"
        tasks.append(DelayTask(arrival, float(np.round(rng.uniform(0.0, 30.0), 2))))
        chunks = []
        for c, src in enumerate(rng.choice([n for n in range(10) if n != gateway], 2, replace=False)):
            chunks.append(f"op{op}:c{c}")
            tasks.append(Flow(chunks[-1], int(src), gateway, 0.25, deps=(arrival,)))
        tasks.append(DelayTask(f"op{op}:dec", 0.003, node=gateway, deps=tuple(chunks)))
    for j in range(12):
        prev = ()
        for b in range(4):
            src, dst = (int(v) for v in rng.choice(10, 2, replace=False))
            tasks.append(Flow(f"bg{j}:{b}", src, dst, 64.0, deps=prev, weight=(0.25, 0.3)[j % 2]))
            prev = (f"bg{j}:{b}",)
    return cluster, tasks


def _shaped(name):
    if name == "serve-shaped":
        return (*serve_shaped_instance(), (), None)
    if name == "events-horizon-trace":
        cluster, tasks = serve_shaped_instance()
        events = [BandwidthEvent(time=t, node=n, uplink=u, downlink=u)
                  for t, n, u in ((0.0, 3, 40.0), (2.5, 7, 12.5), (9.0, 3, 250.0))]
        return cluster, tasks, events, 11.3
    cluster, tasks, events, _ = random_instance(3)
    if name == "all-zero-sizes":
        zero = [dataclasses.replace(t, **{"duration_s" if isinstance(t, DelayTask) else "size_mb": 0.0})
                for t in tasks]
        return cluster, zero, events, None
    assert name == "delays-only"
    delays = [DelayTask(f"d{i}", 0.1 * (i % 4), deps=(f"d{i // 2}",) if i else ()) for i in range(20)]
    return cluster, delays, events, None


@pytest.mark.parametrize(
    "name", ["serve-shaped", "events-horizon-trace", "all-zero-sizes", "delays-only"]
)
def test_shaped_instances_match_the_reference(name):
    """Shapes the random generator rarely draws, through both loop bodies."""
    assert_same_run(*_shaped(name))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_dags_match_the_reference_property(seed):
    assert_same_run(*random_instance(seed))


def test_results_are_python_floats_in_task_order():
    """No NumPy scalar leaks into a result (``repr`` shows up in reports)."""
    cluster, tasks, events, _ = random_instance(7)
    for traced in (False, True):  # the loop bodies both write results
        res = FluidSimulator(cluster).run(tasks, events=events, record_trace=traced, horizon_s=0.4)
        assert type(res.makespan) is float
        assert type(res.cross_rack_mb) is float
        for mapping in (res.finish_times, res.start_times, res.remaining_mb,
                        res.bytes_sent, res.bytes_received):
            assert all(type(v) is float for v in mapping.values())
        assert all(type(k) is int for k in res.bytes_sent)
    for t0, t1, rates in res.trace:
        assert type(t0) is float and type(t1) is float
        assert all(type(v) is float for v in rates.values())
    order = [t.task_id for t in tasks]
    assert list(res.finish_times) == [tid for tid in order if tid in res.finish_times]


_DIGEST_SCRIPT = """
import hashlib
from repro.experiments.common import build_scenario, plan_for
from repro.simnet.fluid import FluidSimulator

ctx = build_scenario(32, 8, 4, wld="WLD-4x", seed=2023).ctx
res = FluidSimulator(ctx.cluster).run(plan_for(ctx, "hmbr").tasks, record_trace=True)
print(hashlib.sha256(repr(res).encode()).hexdigest())
"""


def test_result_does_not_depend_on_the_hash_seed():
    """One HMBR (32, 8, 4) result, ``repr`` and all (dict orders, byte-counter
    sums, trace), is the same under two string-hash seeds: nothing is summed
    or emitted in ``set[str]`` iteration order any more."""
    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# --------------------------------------------------------------------- #
# the compile: array lowering == per-hop lowering
# --------------------------------------------------------------------- #
_PROBLEM_ARRAYS = ("is_delay", "base", "n_deps", "dependents", "dep_ptr", "caps",
                   "hop_task", "hop_src", "hop_dst", "hop_cross")
#: the entries, their weights and the incidence's CSR (by flow) / CSC (by resource)
_INCIDENCE_ARRAYS = ("entry_flow", "entry_res", "weights", "entry_weight",
                     "flow_ptr", "res_flows", "res_ptr")


def _storm_build():
    """The whole-block HMBR builds of a 64-stripe RS(32,8) round with 4
    dead nodes on WLD-4x bandwidths: what the common split search compiles."""
    ds = make_wld(68, "WLD-4x", seed=20230717)
    nodes = [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(68)]
    coord = Coordinator(Cluster(nodes[:60]), RSCode(32, 8), block_bytes=1 << 16, rng=20230717)
    for node in nodes[60:]:
        coord.add_spare(node)
    coord.place_stripes(64, materialize=False)
    for node in range(4):
        coord.crash_node(node)
    affected = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
    tasks = []
    for _, ctx, center in coord.plan_round("hmbr", affected, lazy=True).work:
        (cr, _, _), (ir, _, _) = whole_block(ctx, center)
        tasks += cr + ir
    return coord.cluster, tasks, (), None


def _compile_inputs():
    inputs = {f"seed{seed}": (lambda seed=seed: random_instance(seed))
              for seed in seed_fanout(DEFAULT_MASTER_SEED, 60)}
    inputs.update({name: (lambda name=name: _shaped(name)) for name in
                   ("serve-shaped", "events-horizon-trace", "all-zero-sizes", "delays-only")})
    return inputs | {"hmbr-storm-64": _storm_build}


@pytest.mark.parametrize("make", _compile_inputs().values(), ids=list(_compile_inputs()))
def test_compile_equals_the_per_hop_lowering(make):
    """Every array of the compiled problem, with its dtype, and the resource
    names are ``==`` to the per-hop lowering's: resource ids are numbered
    in first-appearance order, which decides argmin ties.  A complete run
    reads back exactly what the masked (partial-run) path would."""
    cluster, tasks, events, _ = make()
    got, want = FluidSimulator(cluster).compile(tasks), reference_compile(tasks, cluster)
    assert got.ids == want.ids
    assert got.res_names == want.res_names
    pairs = [(name, getattr(got, name), getattr(want, name)) for name in _PROBLEM_ARRAYS]
    pairs += [(name, getattr(got.incidence, name), getattr(want.incidence, name))
              for name in _INCIDENCE_ARRAYS]
    for name, a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name

    def per_node(nodes, mb):  # the per-node sums as they were: np.unique + bincount
        ids, pos = np.unique(nodes, return_inverse=True)
        return dict(zip(ids.tolist(), np.bincount(pos, weights=mb, minlength=len(ids)).tolist()))

    run = FluidSimulator(cluster).start(got, events).advance()
    res, every = run.result(), np.ones(len(got), dtype=bool)
    mb = run.volume[got.hop_task]
    masked = {
        "finish_times": fluid._by_id(got.ids, run.finish, every),
        "start_times": fluid._by_id(got.ids, run.start, every),
        "bytes_sent": per_node(got.hop_src, mb),
        "bytes_received": per_node(got.hop_dst, mb),
    }
    for name, mapping in masked.items():
        assert list(getattr(res, name).items()) == list(mapping.items()), name
    assert res.cross_rack_mb == float(mb[got.hop_cross].sum())
    assert res.remaining_mb == {}
    # a partial run counts the hops of its finished tasks only
    part = FluidSimulator(cluster).start(got, events).advance(res.makespan / 2)
    sent = ~np.isnan(part.finish[got.hop_task])
    for name, nodes in (("bytes_sent", got.hop_src), ("bytes_received", got.hop_dst)):
        want = per_node(nodes[sent], part.volume[got.hop_task[sent]])
        assert list(getattr(part.result(), name).items()) == list(want.items()), name


# --------------------------------------------------------------------- #
# compiled problems: rescaling and re-running
# --------------------------------------------------------------------- #
def test_compiled_problem_reruns_without_leaking_state():
    cluster, tasks, events, _ = random_instance(11)
    sim = FluidSimulator(cluster)
    problem = sim.compile(tasks)
    assert len(problem) == len(tasks)
    for traced in (False, True):  # the compiled loop, then the NumPy one
        first = sim.run(problem, events=events, record_trace=traced)
        sim.run(problem, events=events, horizon_s=0.1, sizes=np.full(len(tasks), 3.0))
        again = sim.run(problem, events=events, record_trace=traced)
        assert again == first == sim.run(tasks, events=events, record_trace=traced)


def test_sizes_rescale_exactly_like_rebuilt_tasks():
    cluster, tasks, events, _ = random_instance(23)
    cr, ir = tasks[: len(tasks) // 2], tasks[len(tasks) // 2 :]
    sim = FluidSimulator(cluster)
    problem = sim.compile(tasks)
    for p in np.linspace(0.0, 1.0, 7):
        rebuilt = scaled_split_tasks(cr, ir, p)
        sizes = [
            t.duration_s if isinstance(t, DelayTask) else t.size_mb for t in rebuilt
        ]
        assert_same_run(cluster, rebuilt, events)
        assert sim.run(problem, events=events, sizes=sizes) == sim.run(rebuilt, events=events)


def test_bad_sizes_are_rejected():
    cluster, tasks, _, _ = random_instance(5)
    sim = FluidSimulator(cluster)
    problem = sim.compile(tasks)
    with pytest.raises(ValueError, match="shape"):
        sim.run(problem, sizes=np.ones(len(tasks) + 1))
    bad = np.ones(len(tasks))
    bad[-1] = -1e-9
    with pytest.raises(ValueError, match="non-negative"):
        sim.run(problem, sizes=bad)
    for value in (np.nan, np.inf):
        bad[-1] = value
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(tasks, sizes=bad)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "make, match",
    [
        (lambda v: Flow("f", 0, 1, v), "negative size"),
        (lambda v: PipelineFlow("p", (0, 1, 2), v), "negative size"),
        (lambda v: DelayTask("d", v), "negative duration"),
        (lambda v: Flow("f", 0, 1, 1.0, weight=v), "weight must be positive"),
        (lambda v: PipelineFlow("p", (0, 1, 2), 1.0, weight=v), "weight must be positive"),
        (lambda v: FluidSimulator(Cluster.homogeneous(2, 100.0)).run(
            [Flow("f", 0, 1, 1.0)], sizes=[v]), "non-negative"),
    ],
    ids=["flow-size", "pipeline-size", "delay", "flow-weight", "pipeline-weight", "sizes"],
)
def test_non_finite_inputs_are_rejected(make, match, value):
    """A NaN or infinite volume never completes and a non-finite weight
    poisons every share: each is the constructor's (or ``run``'s)
    ``ValueError``, not a loop that never returns."""
    with pytest.raises(ValueError, match=match):
        make(value)


def test_compile_still_validates_the_task_list():
    sim = FluidSimulator(Cluster.homogeneous(3, 100.0))
    with pytest.raises(ValueError, match="duplicate"):
        sim.compile([Flow("a", 0, 1, 1.0), Flow("a", 1, 2, 1.0)])
    with pytest.raises(ValueError, match="unknown"):
        sim.run([Flow("a", 0, 1, 1.0, deps=("ghost",))])
    with pytest.raises(AssertionError, match="cycle"):
        sim.run([Flow("a", 0, 1, 1.0, deps=("b",)), Flow("b", 1, 2, 1.0, deps=("a",))])


# --------------------------------------------------------------------- #
# split search: rescale-one-problem == rebuild-per-candidate
# --------------------------------------------------------------------- #
def _wide_repair_subplans():
    """Full-block CR / IR sub-plans on the ``wide_repair`` geometry."""
    ctx = build_scenario(32, 8, 4, wld="WLD-4x", seed=20230717).ctx
    center = ctx.pick_center("fastest-downlink")
    d = ctx.decisions()
    cr, _, _ = add_centralized(ctx, ctx.prefix("h.cr"), 0.0, 1.0, center, d)
    ir, _, _ = add_independent(
        ctx, ctx.prefix("h.ir"), 0.0, 1.0, build_chain_paths(ctx, "index", d), d
    )
    return ctx, cr, ir


def _rack_hmbr_subplans():
    ctx = build_scenario(16, 8, 4, wld="WLD-4x", seed=2023, rack_size=4, cross_factor=4.0).ctx
    center = ctx.pick_center("fastest-downlink")
    d = ctx.decisions()
    cr, _, _ = _build_rack_aware_cr(ctx, ctx.prefix("rh.cr"), 0.0, 1.0, center, d)
    ir, _, _ = _build_tree_ir(ctx, ctx.prefix("rh.ir"), 0.0, 1.0, d)
    return ctx, cr, ir


@pytest.mark.parametrize("subplans", [_wide_repair_subplans, _rack_hmbr_subplans])
def test_search_split_matches_the_rebuilding_search(subplans):
    ctx, cr, ir = subplans()
    events = [BandwidthEvent(time=0.5, node=ctx.cluster.alive_ids()[0], uplink=25.0)]
    for ev in ((), events):
        want = reference_search_split(
            lambda q: scaled_split_tasks(cr, ir, q), ctx.cluster, events=ev
        )
        for kind, bound in BODIES.items():
            with bound():
                got = search_split(cr, ir, ctx.cluster, events=ev)
            assert got == want, kind
            assert all(type(v) is float for v in got)


# --------------------------------------------------------------------- #
# the loop seam: compiled loop == NumPy loop on degenerate incidences
# --------------------------------------------------------------------- #
def run_incidence(inc, active, caps, kind):
    """One loop body's whole run over a bare incidence — or its
    ``AssertionError``'s message.  The tasks are real flows, compiled, with
    the incidence and capacities swapped in; an inactive flow has size 0,
    so it completes at time 0 before the first fill.  Sizes differ per flow,
    so every rate shows in some finish time."""
    n = len(inc.weights)
    sim = FluidSimulator(Cluster.homogeneous(2, 100.0))
    prob = sim.compile([Flow(f"f{i}", 0, 1, 1.0) for i in range(n)])
    prob.incidence, prob.caps = inc, caps
    sizes = np.where(active, 1.0 + np.arange(n) / 7.0, 0.0)
    with BODIES[kind]():
        try:
            return sim.run(prob, sizes=sizes)
        except AssertionError as exc:
            return str(exc)


def random_filling_problem(seed: int):
    """Incidence + active mask + capacities from one seed, degenerate on
    purpose: repeated entries, a flow without entries, zero-weight flows (a
    resource whose weight sum is zero is never contended), zero / tiny /
    infinite / NaN capacities, an empty active set.  Weights and capacities
    are otherwise uniform floats, so nearly every ``s * w`` is inexact."""
    rng = np.random.default_rng(seed)
    n_flows, n_res = int(rng.integers(0, 40)), int(rng.integers(1, 10))
    n_entries = rng.integers(1, 4, n_flows)
    if n_flows and rng.random() < 0.15:
        n_entries[rng.integers(n_flows)] = 0
    weights = rng.uniform(0.1, 5.0, n_flows)
    weights[rng.random(n_flows) < rng.choice([0.0, 0.0, 0.3])] = 0.0
    caps = rng.uniform(1.0, 400.0, n_res)
    odd = rng.random(n_res) < rng.choice([0.0, 0.2])
    caps[odd] = rng.choice([0.0, 1e-13, np.inf, np.nan], int(odd.sum()))
    inc = _Incidence(
        np.repeat(np.arange(n_flows), n_entries),
        rng.integers(0, n_res, int(n_entries.sum())),
        weights, n_res,
    )
    return inc, rng.random(n_flows) < rng.choice([0.0, 0.5, 0.8, 1.0]), caps


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_kernel_rates_equal_numpy_rates(seed):
    """The same run, bit for bit, or the same error (an active flow that
    crosses no contended resource; every active flow starved) from both."""
    inc, active, caps = random_filling_problem(seed)
    kernel = run_incidence(inc, active, caps, "c")
    assert kernel == run_incidence(inc, active, caps, "numpy")
    if not active.any():
        assert kernel.n_rate_updates == 0


@needs_kernel
def test_a_flow_without_entries_is_the_same_error_on_both_allocators():
    inc = _Incidence([0, 0], [0, 1], [1.0, 1.0], n_res=2)  # flow 1: no entries
    active, caps = np.array([True, True]), np.array([10.0, 10.0])
    for kind in BODIES:
        assert run_incidence(inc, active, caps, kind) == fluid._STUCK


def _errors_on_both_bodies(cluster, tasks):
    outcomes = []
    for kind, bound in BODIES.items():
        with bound(), pytest.raises(AssertionError) as info:
            FluidSimulator(cluster).run(tasks)
        outcomes.append((kind, type(info.value), str(info.value)))
    return outcomes


@pytest.mark.parametrize(
    "uplink, message",
    [(1e-13, "deadlock: active flows but no progress possible"),
     (np.nan, "unfixed flows but no contended resource")],
    ids=["deadlock", "stuck"],
)
def test_solver_errors_are_the_same_on_both_bodies(uplink, message):
    """A link too slow to move anything deadlocks; a NaN capacity leaves no
    contended resource.  Both loop bodies raise the same type and text."""
    cluster = Cluster([Node(0, uplink, 100.0), Node(1, 100.0, 100.0), Node(2, 100.0, 100.0)])
    tasks = [Flow("a", 0, 1, 5.0), DelayTask("d", 0.5), Flow("b", 2, 1, 5.0, deps=("d",))]
    outcomes = _errors_on_both_bodies(cluster, tasks)
    assert {(t, m) for _, t, m in outcomes} == {(AssertionError, message)}, outcomes


def test_incidence_rejects_what_the_kernel_would_read_out_of_bounds():
    """The C loop indexes unchecked, so ids are checked in Python."""
    for flows, res in (([0, 2], [0, 0]), ([0, 1], [0, 3]), ([0, 1], [-1, 0])):
        with pytest.raises(ValueError, match="outside"):
            _Incidence(flows, res, [1.0, 1.0], n_res=2)
    with pytest.raises(ValueError, match="flow-major"):
        _Incidence([1, 0], [0, 0], [1.0, 1.0], n_res=2)


# --------------------------------------------------------------------- #
# a run that stops and goes on: FluidSimulator.start
# --------------------------------------------------------------------- #
def segment_rates(trace, t):
    """The rates of the traced interval containing ``t`` ({} past the end)."""
    return next((rates for t0, t1, rates in trace if t0 <= t < t1), {})


def completion_at_an_event():
    """Flow ``a`` completes exactly when the event at 0.1 fires, releasing
    a zero-size flow and a dependent; a delay gates a third flow."""
    cluster = Cluster([Node(i, 100.0, 100.0) for i in range(4)])
    tasks = [
        Flow("a", 0, 1, 10.0),
        Flow("c", 2, 3, 30.0, weight=1.7),
        Flow("z", 1, 3, 0.0, deps=("a",)),
        Flow("b", 1, 2, 5.0, deps=("a",), weight=0.3),
        DelayTask("d", 0.25),
        Flow("e", 3, 0, 8.0, deps=("d", "z")),
    ]
    events = [BandwidthEvent(0.1, 1, downlink=40.0), BandwidthEvent(0.3, 3, uplink=25.0)]
    return cluster, tasks, events


def resumable_instances():
    yield "completion-at-event", (*completion_at_an_event(), None)
    for seed in seed_fanout(DEFAULT_MASTER_SEED + 1, 25):
        yield f"seed{seed}", random_instance(seed)


@pytest.mark.parametrize("name, instance", list(resumable_instances()))
def test_start_advance_result_equals_run(name, instance):
    cluster, tasks, events, horizon = instance
    sim = FluidSimulator(cluster)
    for kind, bound in BODIES.items():
        with bound():
            for h in {horizon, 0.4, None}:
                assert sim.start(tasks, events=events).advance(h).result() == sim.run(
                    tasks, events=events, horizon_s=h
                ), (kind, h)


@pytest.mark.parametrize("name, instance", list(resumable_instances()))
def test_advancing_through_every_event_time_equals_one_run(name, instance):
    """Pausing at event times adds no interval: every time, rate-update
    count and byte counter is ``==`` to the run that never stopped."""
    cluster, tasks, events, _ = instance
    sim = FluidSimulator(cluster)
    for kind, bound in BODIES.items():
        with bound():
            run = sim.start(tasks, events=events)
            for ev in sorted(events, key=lambda e: e.time):
                run.advance(ev.time)
            assert run.advance().result() == sim.run(tasks, events=events), kind


@pytest.mark.parametrize("name, instance", list(resumable_instances()))
def test_rates_at_equals_the_traced_interval(name, instance):
    """At every pause: each interval so far reads its traced rates, before
    and after the zero-time work at the clock is settled; the clock itself
    reads the interval that starts there."""
    cluster, tasks, events, _ = instance
    sim = FluidSimulator(cluster)
    trace = sim.run(tasks, events=events, record_trace=True).trace
    probes = [t for t0, t1, _ in trace if t1 - t0 > 1e-9 for t in (t0, (t0 + t1) / 2)]
    for kind, bound in BODIES.items():
        with bound():
            run = sim.start(tasks, events=events)
            for ev in sorted(events, key=lambda e: e.time):
                run.advance(ev.time)
                past = [t for t in probes if t < run.now]
                before = [run.rates_at(t) for t in past]
                assert before == [segment_rates(trace, t) for t in past], kind
                assert run.rates_at(run.now) == segment_rates(trace, run.now), kind
                assert [run.rates_at(t) for t in past] == before, kind
            run.advance()
            for t in probes + [run.now]:
                assert run.rates_at(t) == segment_rates(trace, t), (kind, t)


def test_settling_at_a_pause_retires_what_completes_there():
    """A task that completes exactly at the pause is unfinished volume 0.0
    until the pause is settled, then finished at the pause; the tasks it
    released start there."""
    cluster, tasks, events = completion_at_an_event()
    sim = FluidSimulator(cluster)
    for kind, bound in BODIES.items():
        with bound():
            run = sim.start(tasks, events=events).advance(0.1)
            cut = run.result()
            assert cut == sim.run(tasks, events=events, horizon_s=0.1), kind
            assert cut.makespan == 0.1 and cut.remaining_mb["a"] == 0.0, kind
            assert set(run.rates_at(0.1)) == {"b", "c"}, kind
            settled = run.result()
            assert settled.finish_times == {**cut.finish_times, "a": 0.1, "z": 0.1}, kind
            assert settled.start_times["b"] == settled.start_times["z"] == 0.1, kind
            assert not {"a", "z"} & set(settled.remaining_mb), kind
            assert settled.remaining_mb["b"] == 5.0 and "e" not in settled.start_times, kind
            assert run.advance().result() == sim.run(tasks, events=events), kind


def test_advancing_a_finished_run_is_a_no_op():
    cluster, tasks, events, _ = random_instance(3)
    sim = FluidSimulator(cluster)
    for kind, bound in BODIES.items():
        with bound():
            run = sim.start(tasks, events=events).advance()
            done = run.result()
            assert run.done
            assert run.advance().advance(done.makespan + 5.0).result() == done, kind
            assert run.rates_at(done.makespan + 5.0) == {}, kind


def test_rates_past_the_clock_of_a_paused_run_are_refused():
    cluster, tasks, events = completion_at_an_event()
    run = FluidSimulator(cluster).start(tasks, events=events).advance(0.05)
    with pytest.raises(ValueError, match="past the run's clock"):
        run.rates_at(0.2)


def test_resumable_run_raises_what_run_raises():
    """A deadlock or a dependency cycle surfaces from ``advance`` with
    ``run``'s error, on both loop bodies."""
    stuck = Cluster([Node(0, 1e-13, 100.0), Node(1, 100.0, 100.0), Node(2, 100.0, 100.0)])
    stalled = [Flow("a", 0, 1, 5.0), DelayTask("d", 0.5), Flow("b", 2, 1, 5.0, deps=("d",))]
    cycle = [Flow("a", 0, 1, 1.0, deps=("b",)), Flow("b", 1, 2, 1.0, deps=("a",))]
    for kind, bound in BODIES.items():
        with bound():
            with pytest.raises(AssertionError, match="deadlock"):
                FluidSimulator(stuck).start(stalled).advance(0.2).advance()
            run = FluidSimulator(Cluster.homogeneous(3, 100.0)).start(cycle)
            assert run.advance(1.0).done, kind  # a horizon forgives, as in run
            with pytest.raises(AssertionError, match="cycle"):
                run.advance()
