"""A multi-stripe HMBR round splits each stripe on the round's volume LP.

:func:`repro.repair.split.search_split` with ``stripe_of`` solves the LP,
runs the fluid simulator once at its splits and keeps them when that run
is at or below L, the best volume bound of any common split; otherwise it
runs the common-split grid on the same problem and keeps the better.  So
no round may plan worse than the common split the paper's §IV-C searches.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.repair.split as split_mod
from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.placement import place_stripes_random
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe, StripeLayout
from repro.repair.hybrid import whole_block
from repro.repair.multinode import CenterScheduler
from repro.repair.planner import plan_round
from repro.repair.split import min_max, search_split
from repro.simnet import NetworkTrace
from repro.simnet.flows import DelayTask
from repro.simnet.fluid import FluidSimulator
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest

WLDS = ("WLD-2x", "WLD-4x", "WLD-8x", "uniform")


def _round(k, m, f, n_stripes, wld, seed, spare_room=3):
    """An HMBR round: ``n_stripes`` RS(k, m) stripes on a cluster just wide
    enough for them, ``f`` dead nodes, one spare each, planned by
    :func:`plan_round` with the LFS/LRS center scheduler."""
    n_data = k + m + f + spare_room
    n = n_data + f
    if wld == "uniform":
        up = down = [100.0] * n
    else:
        ds = make_wld(n, wld, seed=seed)
        up, down = ds.uplinks, ds.downlinks
    cluster = Cluster([Node(i, float(up[i]), float(down[i])) for i in range(n)])
    layout = place_stripes_random(
        cluster, n_stripes, k, m, rng=seed, candidates=list(range(n_data))
    )
    rng = np.random.default_rng(seed + 1)
    dead = sorted(int(x) for x in rng.choice(n_data, size=f, replace=False))
    cluster.fail_nodes(dead)
    replacement_of = {d: n_data + i for i, d in enumerate(dead)}
    return _plan(cluster, RSCode(k, m), layout, replacement_of)


def _plan(cluster, code, layout, replacement_of):
    affected = layout.stripes_with_failures(set(replacement_of))
    rnd = plan_round(
        layout, cluster, code, CenterScheduler(), "hmbr", affected,
        block_size_mb=64.0, replacement_of=replacement_of,
    )
    return cluster, rnd


def _merged_whole_block(rnd):
    """The round's whole-block CR and IR task lists, and each task's stripe."""
    cr_all, ir_all, cr_of, ir_of = [], [], [], []
    for i, (_, ctx, center) in enumerate(rnd.work):
        (cr, _, _), (ir, _, _) = whole_block(ctx, center)
        cr_all += cr
        ir_all += ir
        cr_of += [i] * len(cr)
        ir_of += [i] * len(ir)
    return cr_all, ir_all, cr_of + ir_of


def _common_split_bound(cluster, cr_all, ir_all) -> float:
    """L, recomputed from the tasks' hops alone: min over a common q of the
    largest (node, direction) volume over its capacity.  Each resource's
    volume is a line in q; the minimum of their maximum lies at q = 0, 1 or
    where two lines cross."""
    lines = {}
    for tasks, cr in ((cr_all, True), (ir_all, False)):
        for t in tasks:
            if isinstance(t, DelayTask):
                continue
            for src, dst in t.hops:
                for res, cap in (
                    (("up", src), cluster[src].uplink), (("down", dst), cluster[dst].downlink)
                ):
                    slope, icpt = lines.get(res, (0.0, 0.0))
                    mb = t.size_mb / cap
                    lines[res] = (slope + mb, icpt) if cr else (slope - mb, icpt + mb)
    slope, icpt = np.array(list(lines.values())).T
    ds, di = slope[:, None] - slope[None, :], icpt[None, :] - icpt[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = di / ds
    qs = np.r_[0.0, 1.0, cross[(ds != 0) & (cross > 0) & (cross < 1)]]
    return float((icpt[:, None] + slope[:, None] * qs[None, :]).max(axis=0).min())


@st.composite
def rounds(draw):
    k = draw(st.integers(min_value=2, max_value=16))
    m = draw(st.integers(min_value=1, max_value=6))
    f = draw(st.integers(min_value=1, max_value=m))
    n_stripes = draw(st.integers(min_value=2, max_value=40))
    wld = draw(st.sampled_from(WLDS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return k, m, f, n_stripes, wld, seed


@settings(max_examples=20, deadline=None)
@given(rounds())
def test_no_round_plans_worse_than_the_common_split_grid(case):
    cluster, rnd = _round(*case)
    if rnd.split is None:  # fewer than two stripes lost a block
        return
    t_round = FluidSimulator(cluster).run(rnd.tasks).makespan
    cr_all, ir_all, stripe_of = _merged_whole_block(rnd)
    _, t_grid = search_split(cr_all, ir_all, cluster)  # the paper's common p
    assert t_round <= t_grid * (1 + 1e-9)
    # a certified round ran the simulator once, at or below L
    runs = []
    run = FluidSimulator.run

    def counted(self, *args, **kwargs):
        res = run(self, *args, **kwargs)
        runs.append(res.makespan)
        return res

    FluidSimulator.run = counted
    try:
        search_split(cr_all, ir_all, cluster, stripe_of=stripe_of)
    finally:
        FluidSimulator.run = run
    assert len(runs) == 1 or len(runs) == 1 + 19
    if len(runs) == 1:
        assert runs[0] <= _common_split_bound(cluster, cr_all, ir_all) * (1 + 1e-9)


def test_a_round_keeps_the_grid_p_when_the_lp_run_ties_or_loses(monkeypatch):
    """An uncertified LP split that does not beat the grid gives way to the
    grid's one p on every stripe, so that round plans exactly as before.
    Here the "LP" answers x = 0 with an unreachable bound: the grid holds
    p = 0 too, so its run ties or loses."""
    cluster, rnd = _round(8, 4, 2, 12, "WLD-4x", 7)
    cr_all, ir_all, stripe_of = _merged_whole_block(rnd)
    p, t = search_split(cr_all, ir_all, cluster)
    monkeypatch.setattr(split_mod, "min_max", lambda c, a: (np.zeros(a.shape[1]), -1.0))
    splits, run = search_split(cr_all, ir_all, cluster, stripe_of=stripe_of)
    assert (list(splits), run.makespan) == ([p] * len(rnd.work), t)


def test_events_keep_the_common_split_grid():
    from repro.simnet.dynamic import BandwidthEvent

    cluster, rnd = _round(8, 4, 2, 12, "WLD-4x", 11)
    cr_all, ir_all, stripe_of = _merged_whole_block(rnd)
    events = [BandwidthEvent(time=1.0, node=int(cluster.alive_ids()[0]), uplink=5.0)]
    p, t = search_split(cr_all, ir_all, cluster, events=events)
    splits, run = search_split(cr_all, ir_all, cluster, events=events, stripe_of=stripe_of)
    assert (list(splits), run.makespan) == ([p] * len(rnd.work), t)


# ------------------------------------------------------------------ #
# the run that chose the splits times the round
# ------------------------------------------------------------------ #
def _system(k, m, f, n_stripes, wld, seed, spare_room=3):
    """A drawn round (as :func:`_round` draws it) on a metadata-only
    :class:`Coordinator`, ``f`` of its data nodes dead."""
    n_data = k + m + f + spare_room
    n = n_data + f
    if wld == "uniform":
        up = down = [100.0] * n
    else:
        ds = make_wld(n, wld, seed=seed)
        up, down = ds.uplinks, ds.downlinks
    nodes = [Node(i, float(up[i]), float(down[i])) for i in range(n)]
    coord = Coordinator(Cluster(nodes[:n_data]), RSCode(k, m), block_bytes=64, rng=seed)
    for node in nodes[n_data:]:
        coord.add_spare(node)
    coord.place_stripes(n_stripes, materialize=False)
    for node in np.random.default_rng(seed + 1).choice(n_data, size=f, replace=False):
        coord.crash_node(int(node))
    return coord


def _benchmark_system(stripes, payload=None):
    """``wide_repair``'s (16 stripes) or ``plan_storm``'s (64) round; with a
    ``payload`` of ``stripes`` stripes, written on 256-byte blocks."""
    from benchmarks.e2e.workloads import _WIDE, build_system

    sz = dict(_WIDE, stripes=stripes, block_bytes=256 if payload else 1 << 16)
    coord = build_system(sz)
    if payload is None:
        coord.place_stripes(stripes, materialize=False)
    else:
        coord.write("f", payload)
    for node in range(sz["dead"]):
        coord.crash_node(node)
    return coord


def _fresh_timing(coord, timing, events=()):
    """``(makespan, per-stripe finish)`` of a fresh run of the planned tasks."""
    tasks = [t for _, plan in timing.plans for t in plan.tasks]
    run = FluidSimulator(coord.cluster).run(tasks, events=events)
    return run.makespan, {
        sid: max(run.finish_times[t.task_id] for t in plan.tasks) for sid, plan in timing.plans
    }


@pytest.fixture
def fluid_runs(monkeypatch):
    """Every ``FluidSimulator.run``'s task count, in call order."""
    runs = []
    run = FluidSimulator.run

    def counted(self, tasks, *args, **kwargs):
        runs.append(len(tasks))
        return run(self, tasks, *args, **kwargs)

    monkeypatch.setattr(FluidSimulator, "run", counted)
    return runs


@settings(max_examples=15, deadline=None)
@given(rounds())
def test_a_round_is_timed_as_a_fresh_run_of_its_plans(case):
    """Only a zero-size half's tasks and the task order set the kept run
    apart from a fresh one: ties between equally loaded resources can break
    in another order, which moves a finish by an ulp at most."""
    coord = _system(*case)
    timing = coord.plan_repair("hmbr")
    makespan, per_stripe = _fresh_timing(coord, timing)
    assert abs(timing.makespan_s - makespan) <= 1e-12 * makespan
    assert timing.per_stripe_s.keys() == per_stripe.keys()
    for sid, t in per_stripe.items():
        assert abs(timing.per_stripe_s[sid] - t) <= 1e-12 * t, sid


@pytest.mark.parametrize("stripes", [16, 64], ids=["wide_repair", "plan_storm"])
def test_the_benchmark_rounds_run_the_simulator_once_and_time_exactly(stripes, fluid_runs):
    coord = _benchmark_system(stripes)
    timing = coord.plan_repair("hmbr")
    # one certified run, over both halves of every stripe; the plans keep
    # only the non-empty ones
    assert len(fluid_runs) == 1
    assert fluid_runs[0] > sum(len(plan.tasks) for _, plan in timing.plans)
    splits = {plan.meta["p0"] for _, plan in timing.plans}
    assert {0.0, 1.0} <= splits and len(splits) > 2  # pure IR, pure CR and inside
    assert (timing.makespan_s, timing.per_stripe_s) == _fresh_timing(coord, timing)


def test_a_certified_byte_round_runs_the_simulator_once(fluid_runs):
    """The data plane's round reads its timing from the certified search
    run too: one fluid run plans and times the whole repair."""
    payload = bytes(range(256)) * (16 * 32)
    coord = _benchmark_system(16, payload)
    planned = coord.plan_repair("hmbr")
    del fluid_runs[:]
    result = coord.repair(RepairRequest())
    assert len(fluid_runs) == 1 and coord.read("f") == payload
    assert (result.makespan_s, result.per_stripe_transfer_s) == (
        planned.makespan_s, planned.per_stripe_s
    )


def test_a_round_under_network_events_is_timed_again_under_them(fluid_runs):
    coord = _benchmark_system(16)
    quiet = coord.plan_repair("hmbr")
    del fluid_runs[:]
    trace = NetworkTrace.degrade(list(range(4, 30)), at_time=2.0, factor=4.0)
    timing = coord.plan_repair("hmbr", network=trace)
    assert len(fluid_runs) == 2  # the certified search, then the events
    fresh = _fresh_timing(coord, timing, trace.events_for(coord.cluster))
    assert (timing.makespan_s, timing.per_stripe_s) == fresh
    assert timing.makespan_s > quiet.makespan_s


# ------------------------------------------------------------------ #
# the LP solver, without scipy
# ------------------------------------------------------------------ #
@st.composite
def lps(draw):
    rows = draw(st.integers(min_value=1, max_value=30))
    cols = draw(st.integers(min_value=1, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    c = rng.uniform(0.0, 5.0, rows)
    a = rng.normal(0.0, 1.0, (rows, cols))
    if draw(st.booleans()):  # identical stripes: every column the same
        a[:] = a[:, :1]
    return c, a, rng


@settings(max_examples=60, deadline=None)
@given(lps())
def test_the_lp_objective_is_at_most_the_volume_bound_anywhere_in_the_box(lp):
    c, a, rng = lp
    x, t = min_max(c, a)
    assert ((0.0 <= x) & (x <= 1.0)).all()
    assert t == pytest.approx((c + a @ x).max(), rel=1e-12)
    points = [np.zeros(a.shape[1]), np.ones(a.shape[1])] + list(rng.uniform(0, 1, (20, a.shape[1])))
    for y in points:
        bound = (c + a @ y).max()
        assert t <= bound + 1e-9 * abs(bound) + 1e-12


def test_a_round_of_identical_stripes_terminates():
    """Every stripe on the same nodes and one spare, so one center: the
    LP's columns are all equal and its steps degenerate, yet the solver
    ends, at the common split's bound."""
    k, m = 6, 3
    cluster = Cluster([Node(i, 100.0, 100.0) for i in range(k + m + 1)])
    layout = StripeLayout([Stripe(s, k, m, list(range(k + m))) for s in range(24)])
    cluster.fail_nodes([0])
    cluster, rnd = _plan(cluster, RSCode(k, m), layout, {0: k + m})
    cr_all, ir_all, stripe_of = _merged_whole_block(rnd)
    problem = FluidSimulator(cluster).compile(cr_all + ir_all)
    c, a = split_mod._volume_rows(problem, np.arange(len(problem)) < len(cr_all), np.array(stripe_of))
    assert (a == a[:, :1]).all()
    _, t = min_max(c, a)
    assert t == pytest.approx(_common_split_bound(cluster, cr_all, ir_all), rel=1e-9)
    t_round = FluidSimulator(cluster).run(rnd.tasks).makespan
    assert t_round <= search_split(cr_all, ir_all, cluster)[1] * (1 + 1e-9)


# ------------------------------------------------------------------ #
# the benchmark's plan_storm rounds, and what planning imports
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("stripes,ceiling_s", [(16, 28.0), (64, 93.0), (256, 341.0)])
def test_plan_storm_rounds_beat_their_common_split(stripes, ceiling_s):
    """RS(32, 8) on 60 WLD-4x nodes, 4 dead: the common split read 33.21 /
    125.62 / 487.68 s here."""
    from benchmarks.e2e.workloads import _WIDE, build_system

    sz = dict(_WIDE, stripes=stripes)
    coord = build_system(sz)
    coord.place_stripes(stripes, materialize=False)
    for node in range(sz["dead"]):
        coord.crash_node(node)
    assert coord.plan_repair("hmbr").makespan_s <= ceiling_s


def test_planning_a_round_does_not_import_scipy():
    code = textwrap.dedent(
        """
        import sys
        import repro
        from repro.cluster.node import Node
        from repro.cluster.topology import Cluster
        from repro.ec.rs import RSCode
        from repro.system.coordinator import Coordinator

        coord = Coordinator(
            Cluster([Node(i, 50.0 + i, 80.0 - i) for i in range(16)]), RSCode(6, 3),
            block_bytes=4096, rng=1,
        )
        for j in range(3):
            coord.add_spare(Node(100 + j, 60.0, 60.0))
        coord.place_stripes(12, materialize=False)
        coord.crash_node(0)
        coord.crash_node(1)
        assert coord.plan_repair("hmbr").makespan_s > 0
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
