"""Plan each HMBR stripe once, as one half at p = 0 or 1.

A round's split search builds every stripe's CR and IR sub-plans over
the whole block; the plan at the stripe's ``p`` re-fractions that
build's tasks (:func:`repro.repair._build.refraction`) and calls its byte
lowering at the sub-range instead of calling the builders again.  Both are
pinned ``==`` against what they replace: a fresh builder call over the
sub-range.  At p = 0 or 1 the plan is the one non-empty build over the
whole block (pure IR or CR), and every repair route rebuilds such stripes
bit-exact on both fields.
"""

import sys

import numpy as np
import pytest

from benchmarks.e2e.workloads import _WIDE, STRUCTURE_SEED
from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.experiments.common import build_scenario
from repro.faults.schedule import FaultSchedule
from repro.gf.field import GF
from repro.repair import _build
from repro.repair._build import add_centralized, add_independent, refraction, repaired_name
from repro.repair.context import RepairContext
from repro.repair.hybrid import plan_hybrid
from repro.repair.plan import ConcatOp
from repro.repair.planner import plan_stripe
from repro.repair.rackaware import (
    _build_rack_aware_cr,
    _build_tree_ir,
    plan_rack_aware_hybrid,
)
from repro.repair.plan import SliceOp
from repro.repair.topology import build_chain_paths
from repro.repair.validate import _check_views_consistent
from repro.simnet import NetworkTrace
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from tests.test_system_batch import build_system


# ------------------------------------------------------------------ #
# re-fractioning == a fresh build over the sub-range
# ------------------------------------------------------------------ #
def _rack_scenario(trunk):
    """RS(16, 8), 4 lost blocks, racks of 4 with ``tc``-shaped cross links;
    ``trunk`` also caps every rack's shared trunk (moves the searched p)."""
    ctx = build_scenario(16, 8, 4, wld="WLD-4x", seed=2023, rack_size=4, cross_factor=4.0).ctx
    if trunk is not None:
        ctx.cluster.set_all_rack_trunks(trunk)
    return ctx, ctx.pick_center("fastest-downlink")


def _paths(ctx):
    return build_chain_paths(ctx, "index", ctx.decisions())


#: builder name -> (fresh build over [lo, hi), which searched p applies)
BUILDERS = {
    "cr": (
        lambda ctx, c, lo, hi: add_centralized(
            ctx, ctx.prefix("h.cr"), lo, hi, c, ctx.decisions()
        ),
        "hmbr",
    ),
    "ir": (
        lambda ctx, c, lo, hi: add_independent(
            ctx, ctx.prefix("h.ir"), lo, hi, _paths(ctx), ctx.decisions()
        ),
        "hmbr",
    ),
    "rack-cr": (
        lambda ctx, c, lo, hi: _build_rack_aware_cr(
            ctx, ctx.prefix("rh.cr"), lo, hi, c, ctx.decisions(), "paper"
        ),
        "rack",
    ),
    "rack-cr-adaptive": (
        lambda ctx, c, lo, hi: _build_rack_aware_cr(
            ctx, ctx.prefix("rh.cr"), lo, hi, c, ctx.decisions(), "adaptive"
        ),
        "rack",
    ),
    "tree-ir": (
        lambda ctx, c, lo, hi: _build_tree_ir(ctx, ctx.prefix("rh.ir"), lo, hi, ctx.decisions()),
        "rack",
    ),
}


@pytest.mark.parametrize("trunk", [None, 25.0], ids=["no-trunks", "trunks"])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_refraction_equals_a_fresh_build(builder, trunk):
    ctx, center = _rack_scenario(trunk)
    build, family = BUILDERS[builder]
    planner = plan_hybrid if family == "hmbr" else plan_rack_aware_hybrid
    searched = planner(ctx, center=center).meta["p0"]
    whole = build(ctx, center, 0.0, 1.0)
    for p in (0.0, 1 / 3, 0.5, 1.0, searched):
        for lo, hi in ((0.0, p), (p, 1.0)):
            got = refraction(whole, lo, hi)
            fresh = build(ctx, center, lo, hi)
            assert got[0] == fresh[0] and got[2] == fresh[2], (p, lo, hi)
            # the byte lowering takes its range when called: one serves all
            assert got[1] is whole[1] and got[2] is whole[2]
            assert got[1](lo, hi) == fresh[1](lo, hi), (p, lo, hi)


def test_refraction_rejects_an_empty_range():
    ctx, center = _rack_scenario(None)
    whole = add_centralized(ctx, ctx.prefix("h.cr"), 0.0, 1.0, center, ctx.decisions())
    with pytest.raises(ValueError, match="empty fraction range"):
        refraction(whole, 0.6, 0.4)


def _fresh_hybrid(ctx, center, p):
    """HMBR's tasks and ops at ``p`` from fresh range builds: at p = 0 or 1
    the one non-empty half's whole-range build (pure IR or CR), else both
    halves and one concat per failed block."""
    def cr(lo, hi):
        return add_centralized(ctx, ctx.prefix("h.cr"), lo, hi, center, ctx.decisions())

    def ir(lo, hi):
        return add_independent(ctx, ctx.prefix("h.ir"), lo, hi, _paths(ctx), ctx.decisions())

    if p in (0.0, 1.0):
        tasks, lower, _ = (cr if p else ir)(0.0, 1.0)
        return tasks, lower(0.0, 1.0)
    (up, up_lower, up_out), (lo, lo_lower, lo_out) = cr(0.0, p), ir(p, 1.0)
    concats = [
        ConcatOp(node, repaired_name(ctx.prefix("h"), fb), (buf, lo_out[fb][1]))
        for fb, (node, buf) in up_out.items()
    ]
    return up + lo, up_lower(0.0, p) + lo_lower(p, 1.0) + concats


@pytest.mark.parametrize("p", [None, 0.0, 0.25, 1.0])
def test_hybrid_plan_is_the_fresh_range_builds(p):
    ctx = build_scenario(32, 8, 4, wld="WLD-4x", seed=20230717).ctx
    center = ctx.pick_center("fastest-downlink")
    plan = plan_hybrid(ctx, center=center, p=p)
    tasks, ops = _fresh_hybrid(ctx, center, plan.meta["p0"])
    assert plan.tasks == tasks
    assert plan.ops == ops
    concats = sum(type(op) is ConcatOp for op in ops)
    assert concats == (0 if plan.meta["p0"] in (0.0, 1.0) else ctx.f)


# ------------------------------------------------------------------ #
# one build per stripe per round, consumed by the stripe's plan
# ------------------------------------------------------------------ #
@pytest.fixture
def builds(monkeypatch):
    """CR / IR builder calls (whole or fractional), counted wherever a
    ``repro`` module bound the builders."""
    counts = {"cr": 0, "ir": 0}
    for name, key in (("add_centralized", "cr"), ("add_independent", "ir")):
        fn = getattr(_build, name)

        def counted(*args, _fn=fn, _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


def _crashed_round(lazy: bool):
    """A 10-stripe RS(4, 3) system with two dead nodes, planned as HMBR."""
    coord = build_system()
    coord.crash_node(3)
    coord.crash_node(5)
    affected = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
    rnd = coord.plan_round("hmbr", affected, lazy=lazy)
    assert len(rnd.work) >= 2 and set(rnd.split) == {sid for sid, _, _ in rnd.work}
    return coord, rnd


def test_a_round_builds_each_stripe_once(builds):
    _, rnd = _crashed_round(lazy=False)
    n = len(rnd.work)
    assert builds == {"cr": n, "ir": n}
    assert all(ctx._template is None for _, ctx, _ in rnd.work)  # all consumed
    for (sid, ctx, center), (plan_sid, plan) in zip(rnd.work, rnd.plans):
        assert plan_sid == sid
        tasks, ops = _fresh_hybrid(ctx, center, rnd.split[sid])
        assert plan.tasks == tasks and plan.ops == ops


def test_a_template_serves_one_plan(builds):
    _, rnd = _crashed_round(lazy=True)
    n = len(rnd.work)
    sid, ctx, center = rnd.work[0]
    other_sid, other, other_center = next(w for w in rnd.work[1:] if w[1].f > 1)
    first = plan_stripe(ctx, center, "hmbr", rnd.split[sid])
    assert builds == {"cr": n, "ir": n} and ctx._template is None
    second = plan_stripe(ctx, center, "hmbr", rnd.split[sid])
    assert builds == {"cr": n + 1, "ir": n + 1}
    assert second == first
    assert not any(a is b for a, b in zip(first.ops, second.ops))
    # a template made for another center is dropped, not used
    wrong = next(c for c in other.new_nodes if c != other_center)
    plan = plan_hybrid(other, center=wrong, p=rnd.split[other_sid])
    assert builds == {"cr": n + 2, "ir": n + 2} and other._template is None
    assert plan.tasks == _fresh_hybrid(other, wrong, rnd.split[other_sid])[0]


def test_a_lazy_stripe_whose_survivor_died_is_planned_afresh(builds):
    coord, rnd = _crashed_round(lazy=True)
    n = len(rnd.work)
    sid, ctx, center = rnd.work[0]
    victim = ctx.survivor_nodes()[0]
    coord.crash_node(victim)  # a helper dies before the stripe's turn
    plan = plan_stripe(ctx, center, "hmbr", rnd.split[sid])
    assert builds == {"cr": n + 1, "ir": n + 1}
    touched = {n for t in plan.tasks for hop in t.hops for n in hop}
    assert victim not in touched
    fresh = RepairContext(
        cluster=ctx.cluster, code=ctx.code, stripe=ctx.stripe,
        failed_blocks=ctx.failed_blocks, new_nodes=ctx.new_nodes,
        block_size_mb=ctx.block_size_mb,
    )
    assert plan == plan_hybrid(fresh, center=center, p=rnd.split[sid])
    tasks, ops = _fresh_hybrid(fresh, center, rnd.split[sid])
    assert plan.tasks == tasks and plan.ops == ops


# ------------------------------------------------------------------ #
# the survivors are derived once per plan, not once per builder
# ------------------------------------------------------------------ #
#: scheme -> survivor derivations per stripe in one planned round
DERIVATIONS = {"cr": 1, "ir": 1, "mlf": 1, "rack-hmbr": 1, "hmbr": 2}


@pytest.mark.parametrize("scheme", sorted(DERIVATIONS))
def test_a_round_derives_each_stripes_survivors_once_per_plan(monkeypatch, scheme):
    """Each planner derives a stripe's decisions once and hands them to its
    builders, chain paths and byte lowering.  HMBR plans twice per stripe:
    once for the common-split search's whole-block build, once when the
    stripe's plan is made from it (a helper may have died in between)."""
    calls = {"surviving_blocks": 0, "decisions": 0}
    for name in calls:
        real = getattr(RepairContext, name)

        def counted(self, *args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(RepairContext, name, counted)
    coord = build_system()
    coord.crash_node(3)
    coord.crash_node(7)
    timing = coord.plan_repair(scheme)
    assert len(timing.plans) == 6
    if scheme == "hmbr":
        assert timing.plans[0][1].meta["split"] == "override"
    n = DERIVATIONS[scheme] * len(timing.plans)
    assert calls == {"surviving_blocks": n, "decisions": n}


# ------------------------------------------------------------------ #
# a stripe at p = 0 or 1 is its one non-empty half, on every route
# ------------------------------------------------------------------ #
def _wide_system(w):
    """``wide_repair``'s geometry on 256-word blocks of GF(2^w): RS(32, 8)
    on 60 WLD-4x nodes, 16 stripes written, 4 dead.  Its round's LP puts 8
    stripes at p = 0, 3 at p = 1 and 5 in between."""
    n_data, n_spare = _WIDE["n_data"], _WIDE["n_spare"]
    ds = make_wld(n_data + n_spare, "WLD-4x", seed=STRUCTURE_SEED)
    nodes = [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(len(ds.uplinks))]
    coord = Coordinator(
        Cluster(nodes[:n_data]), RSCode(_WIDE["k"], _WIDE["m"], GF(w)),
        block_bytes=256, rng=STRUCTURE_SEED,
    )
    for node in nodes[n_data:]:
        coord.add_spare(node)
    nbytes = _WIDE["stripes"] * _WIDE["k"] * 256 * (w // 8)
    payload = np.random.default_rng(w).integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    coord.write("f", payload)
    for node in range(_WIDE["dead"]):
        coord.crash_node(node)
    return coord, payload


def _kinds(split):
    return {
        "p=0": [s for s, p in split.items() if p == 0.0],
        "p=1": [s for s, p in split.items() if p == 1.0],
        "inside": [s for s, p in split.items() if 0.0 < p < 1.0],
    }


def test_a_degenerate_stripe_plans_only_its_non_empty_half():
    coord, _ = _wide_system(8)
    rnd = coord.plan_round("hmbr", coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    kinds = _kinds(rnd.split)
    assert all(kinds.values()), kinds
    for (sid, ctx, center), (_, plan) in zip(rnd.work, rnd.plans):
        p = rnd.split[sid]
        assert all(t.size_mb > 0 for t in plan.tasks), sid
        assert not any(type(op) is SliceOp and op.start == op.stop for op in plan.ops), sid
        concats = sum(type(op) is ConcatOp for op in plan.ops)
        _check_views_consistent(plan)  # the timing and byte views use the same links
        if 0.0 < p < 1.0:
            assert concats == ctx.f
            continue
        half = ctx.prefix("h.cr" if p else "h.ir")
        assert concats == 0 and all(t.task_id.startswith(half + ":") for t in plan.tasks)
        assert all(name.startswith(half + "/") for _, name in plan.outputs.values())
        tasks, ops = _fresh_hybrid(ctx, center, p)
        assert plan.tasks == tasks and plan.ops == ops


def _helpers(coord):
    """A chain helper of a p = 0 stripe and a CR helper of a p = 1 stripe."""
    timing = coord.plan_repair("hmbr")
    plans = dict(timing.plans)
    split = {sid: plan.meta["p0"] for sid, plan in plans.items()}
    kinds = _kinds(split)
    chain = plans[kinds["p=0"][0]].tasks[0].path[0]
    fetch = next(
        t.src for t in plans[kinds["p=1"][0]].tasks
        if ":fetch:" in t.task_id and t.src != chain
    )
    return chain, fetch


ROUTES = {
    "healthy": RepairRequest(),
    "scheduler": [RepairRequest()],
    "adaptive-quiet": RepairRequest(adaptive=True, network=NetworkTrace.quiet()),
    "adaptive-drift": RepairRequest(
        adaptive=True, network=NetworkTrace.degrade(list(range(4, 40)), at_time=2.0, factor=6.0)
    ),
    "faults": None,  # kills two helpers as the round starts (below)
}


@pytest.mark.parametrize("w", [8, 16], ids=["gf8", "gf16"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rebuilds_degenerate_stripes_bit_exact(w, route):
    coord, payload = _wide_system(w)
    planned = coord.plan_repair("hmbr")
    assert all(_kinds({sid: p.meta["p0"] for sid, p in planned.plans}).values())
    request = ROUTES[route]
    if route == "faults":  # after the first ops, before the stripes they help
        helpers = _helpers(coord)
        request = RepairRequest(faults=FaultSchedule.from_tuples(
            [(0.001 * (i + 1), "kill", node) for i, node in enumerate(helpers)]
        ))
    result = coord.repair(request)
    assert result.ok and coord.read("f") == payload and all(coord.scrub().values())
    assert not any(agent.scratch for agent in coord.agents.values())
    if route == "faults":
        assert result.report.replans >= 1 and set(helpers) <= set(result.report.detections)
    if route in ("faults", "adaptive-drift"):  # re-planned: timed otherwise
        assert result.report.replans >= 1
        return
    # every other route repairs the planned round, timed as planned
    assert result.blocks_recovered == planned.blocks_recovered
    assert result.makespan_s == planned.makespan_s
    assert result.per_stripe_transfer_s == planned.per_stripe_s
    if route == "adaptive-quiet":  # a strict no-op against the healthy round
        twin, _ = _wide_system(w)
        healthy = twin.repair(RepairRequest())
        assert result.report.replans == 0
        assert (result.bytes_moved, twin.bus.sent_bytes) == (healthy.bytes_moved, coord.bus.sent_bytes)
