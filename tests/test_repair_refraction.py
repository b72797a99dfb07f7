"""Plan each HMBR stripe once.

A round's split search builds every stripe's CR and IR sub-plans over
the whole block; the plan at the stripe's ``p`` re-fractions that
build's tasks (:func:`repro.repair._build.refraction`) and calls its byte
lowering at the sub-range instead of calling the builders again.  Both are
pinned ``==`` against what they replace: a fresh builder call over the
sub-range.
"""

import sys

import pytest

from repro.experiments.common import build_scenario
from repro.repair import _build
from repro.repair._build import add_centralized, add_independent, refraction
from repro.repair.context import RepairContext
from repro.repair.hybrid import plan_hybrid
from repro.repair.planner import plan_stripe
from repro.repair.rackaware import (
    _build_rack_aware_cr,
    _build_tree_ir,
    plan_rack_aware_hybrid,
)
from repro.repair.topology import build_chain_paths
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
    """HMBR's tasks and sub-plan ops at ``p`` from two fresh range builds."""
    cr = add_centralized(ctx, ctx.prefix("h.cr"), 0.0, p, center, ctx.decisions())
    ir = add_independent(ctx, ctx.prefix("h.ir"), p, 1.0, _paths(ctx), ctx.decisions())
    return cr[0] + ir[0], cr[1](0.0, p) + ir[1](p, 1.0)


@pytest.mark.parametrize("p", [None, 0.0, 0.25, 1.0])
def test_hybrid_plan_is_the_fresh_range_builds(p):
    ctx = build_scenario(32, 8, 4, wld="WLD-4x", seed=20230717).ctx
    center = ctx.pick_center("fastest-downlink")
    plan = plan_hybrid(ctx, center=center, p=p)
    tasks, ops = _fresh_hybrid(ctx, center, plan.meta["p0"])
    assert plan.tasks == tasks
    assert plan.ops[: len(ops)] == ops and len(plan.ops) == len(ops) + ctx.f


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
        assert plan.tasks == tasks and plan.ops[: len(ops)] == ops


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
    assert plan.tasks == tasks and plan.ops[: len(ops)] == ops


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
