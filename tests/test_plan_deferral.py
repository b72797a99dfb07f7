"""A plan's byte view is built only when something reads ``plan.ops``.

Planning lowers one set of frozen decisions twice: the timing view (flow
tasks) eagerly, the byte view (GF ops) on first access, validated there
once.  These tests pin that the deferral is invisible to every byte route
and free on every metadata-only route:

* **Frozen digests.** Each case's ``repr(ops)`` and outputs hash to the
  values recorded before the byte view was deferred.
* **Counting.** ``plan_repair(commit=False)``, ``estimate_finish_s`` and the
  reliability simulator's metadata mode construct no byte op at all.
* **Handed rounds** dispatched from an estimate repair bit-exact bytes.
* **Frozen decisions.** A helper that dies after planning leaves the ops
  naming it; the fault runtime sees the dead node instead of a new plan.
* **One graph check.** A byte round checks each task graph once, at
  planning; a plan built outside ``plan_stripe`` is checked at its build.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.experiments.common import build_scenario
from repro.faults.injector import FaultInjector
from repro.faults.runtime import FaultRuntime
from repro.faults.schedule import FaultSchedule
from repro.obs import Observability
from repro.reliability import ReliabilitySpec
from repro.repair.context import Decisions, RepairContext
from repro.repair.hybrid import plan_hybrid
from repro.repair.multinode import plan_multi_node
from repro.repair.plan import (
    ByteLowering, CombineOp, ConcatOp, RepairPlan, SliceOp, TransferOp,
)
from repro.repair import planner as planner_mod
from repro.repair import validate
from repro.repair.planner import SCHEMES
from repro.repair.rackaware import plan_rack_aware_centralized, plan_tree_independent
from repro.repair.singleblock import plan_chain, plan_ppr, plan_star
from repro.simnet import NetworkTrace
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from tests.test_sched_scheduler import _run_state, _storm_requests, _storm_system
from tests.test_system_coordinator import make_system, payload

SHAPES = [(6, 3), (12, 4), (32, 8)]


def digest(ops, outputs) -> str:
    blob = repr((list(ops), sorted(outputs.items())))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _ctx(k, m, f):
    n = k + m + f
    return build_scenario(
        k, m, f, wld="WLD-4x", seed=7, rack_size=-(-n // 6), cross_factor=4.0
    ).ctx


#: case -> (planner(ctx), f)
_STRIPE_CASES = {
    **{s: ((lambda ctx, s=s: SCHEMES[s](ctx, ctx.pick_center())), 2) for s in SCHEMES},
    "hmbr-p0.3": (lambda ctx: plan_hybrid(ctx, p=0.3), 2),
    "rack-cr": (plan_rack_aware_centralized, 3),
    "rack-cr-adaptive": (
        lambda ctx: plan_rack_aware_centralized(ctx, intermediate_policy="adaptive"), 3
    ),
    "tree-ir": (plan_tree_independent, 3),
    "star": (plan_star, 1),
    "chain": (plan_chain, 1),
    "ppr": (plan_ppr, 1),
}


def _crashed_system(seed=41):
    coord = make_system(seed=seed, rack_size=6)
    coord.write("f", payload(6 * coord.code.k * coord.block_bytes, seed=seed))
    for node in coord.layout.stripes[0].placement[:2]:
        coord.crash_node(node)
    return coord


def _round_case(scheme):
    coord = _crashed_system()
    affected = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
    rnd = coord.plan_round(scheme, affected)
    return [op for _, p in rnd.plans for op in p.ops], {
        (sid, fb): out for sid, p in rnd.plans for fb, out in p.outputs.items()
    }


def _multi_node_case():
    from tests.test_repair_multinode import multi_node_setup

    merged, jobs = plan_multi_node(*multi_node_setup(n_stripes=6), scheme="hmbr")
    return merged.ops, {
        (j.stripe_id, fb): out for j in jobs for fb, out in j.plan.outputs.items()
    }


def _adaptive_case(scheme):
    coord = make_system(seed=43)
    coord.write("f", payload(40_000, seed=43))
    coord.crash_node(0)
    trace = NetworkTrace.degrade(list(range(2, 12)), at_time=0.1, factor=20.0)
    result = coord.repair(RepairRequest(scheme=scheme, network=trace, adaptive=True))
    assert result.report.replans >= 1
    pieces = [p for key in sorted(result.report.pieces) for p in result.report.pieces[key]]
    return [op for p in pieces for op in p.ops], {
        p.piece_id: tuple(sorted(p.outputs.items())) for p in pieces
    }


def frozen_cases():
    """case id -> a zero-argument builder of ``(ops, outputs)``."""
    cases = {}
    for name, (planner, f) in _STRIPE_CASES.items():
        for k, m in SHAPES:
            def build(planner=planner, k=k, m=m, f=f):
                plan = planner(_ctx(k, m, f))
                return plan.ops, plan.outputs

            cases[f"{name}-RS{k}-{m}"] = build
    for scheme in ("cr", "ir", "hmbr", "mlf", "rack-hmbr"):
        cases[f"round-{scheme}"] = lambda s=scheme: _round_case(s)
    cases["multi-node-hmbr"] = _multi_node_case
    for scheme in ("cr", "hmbr", "mlf"):
        cases[f"adaptive-{scheme}"] = lambda s=scheme: _adaptive_case(s)
    return cases


#: ``digest`` of every case, recorded with every builder still emitting its
#: ops eagerly; a deferred build must reproduce each one.
FROZEN = {
    "adaptive-cr": "420d7759b4b5eebb6f68",
    "adaptive-hmbr": "d591455aff126a450265",
    "adaptive-mlf": "c80b7accdb3745827b96",
    "auto-RS12-4": "725f5fd6dbcc48a70050",
    "auto-RS32-8": "c1daad1e7b2400395733",
    "auto-RS6-3": "f44024b800c2de2f3dec",
    "chain-RS12-4": "4f3d4a826c2ba8198cc7",
    "chain-RS32-8": "3912111454d5cebb927d",
    "chain-RS6-3": "e84342acbf57d437194f",
    "cr-RS12-4": "f487ea750fc040e06cb8",
    "cr-RS32-8": "acb72c07dc6357df355a",
    "cr-RS6-3": "e70e7d40effdf3092f39",
    "hmbr-RS12-4": "f4171e4a370f692fc0b8",
    "hmbr-RS32-8": "3556f04a69ddc47643fa",
    "hmbr-RS6-3": "f44024b800c2de2f3dec",
    "hmbr-p0.3-RS12-4": "75ee677ac1ff96d709bd",
    "hmbr-p0.3-RS32-8": "09a3efce0a1a7cfc94bc",
    "hmbr-p0.3-RS6-3": "d6922298a7a8f8675201",
    "ir-RS12-4": "3291bd3eec70aa37e190",
    "ir-RS32-8": "5da9f6a53e9525352c8a",
    "ir-RS6-3": "a941445a6d90813e95f1",
    "mlf-RS12-4": "78422215a4122bd7f31a",
    "mlf-RS32-8": "61913928545300ffe80c",
    "mlf-RS6-3": "586d096df553b4846003",
    "multi-node-hmbr": "abd08cd6af738d3e371c",
    "ppr-RS12-4": "0699cb4add70089d8109",
    "ppr-RS32-8": "aec2fa33198991464840",
    "ppr-RS6-3": "2921bdaa963eac861749",
    "rack-cr-RS12-4": "d86c41da6828b51d94eb",
    "rack-cr-RS32-8": "be4ac49e676fea28402e",
    "rack-cr-RS6-3": "e186181693258f570811",
    "rack-cr-adaptive-RS12-4": "870bae8f40bfe0a9c6d8",
    "rack-cr-adaptive-RS32-8": "18649e88857b1ff9b89d",
    "rack-cr-adaptive-RS6-3": "0a9197aeb1f1f178585a",
    "rack-hmbr-RS12-4": "725f5fd6dbcc48a70050",
    "rack-hmbr-RS32-8": "c1daad1e7b2400395733",
    "rack-hmbr-RS6-3": "7804d9eb2f04b100586c",
    "round-cr": "087df8b41d56a8adabd5",
    "round-hmbr": "dab2b5572fbe6e0cb3fc",
    "round-ir": "16ac088fd76c02bcb8de",
    "round-mlf": "cd41946e17ac6fe6cd17",
    "round-rack-hmbr": "b2d75dc14a98a2682cca",
    "star-RS12-4": "dc0509fd157d95108a25",
    "star-RS32-8": "27b28776107ae1937d41",
    "star-RS6-3": "2e972dfd42bb368fcba2",
    "tree-ir-RS12-4": "1593d03d5031c5d63776",
    "tree-ir-RS32-8": "38b54eb1b75d8fc6ddc3",
    "tree-ir-RS6-3": "8e6aebf25d28e1d4604e",
}


@pytest.mark.parametrize("case", sorted(frozen_cases()))
def test_deferred_byte_views_match_the_frozen_digests(case):
    assert digest(*frozen_cases()[case]()) == FROZEN[case]


# ------------------------------------------------------------------ #
# the metadata-only routes construct no byte op
# ------------------------------------------------------------------ #
@pytest.fixture
def byte_ops(monkeypatch):
    """Constructions of every byte op kind, counted wherever they happen."""
    counts = {cls.__name__: 0 for cls in (SliceOp, TransferOp, CombineOp, ConcatOp)}
    for cls in (SliceOp, TransferOp, CombineOp, ConcatOp):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _observed(coord, attach):
    if attach:
        Observability().attach(coord)
    return coord


@pytest.mark.parametrize("attach", [False, True], ids=["bare", "observed"])
def test_metadata_routes_build_no_byte_op(byte_ops, attach):
    coord = _observed(_crashed_system(), attach)
    for scheme in sorted(SCHEMES):
        timing = coord.plan_repair(scheme, commit=False)
        assert timing.plans and timing.makespan_s > 0
    eta = coord.sched.estimate_finish_s([RepairRequest(), RepairRequest(scheme="cr")])
    assert eta.finish_s and eta.rounds
    assert coord.plan_repair("hmbr", commit=True).committed
    assert not any(byte_ops.values()), byte_ops
    # the same plans still hold their byte views, unbuilt until read
    assert all(p._lowering is not None for h in eta.rounds for _, p in h.rnd.plans)
    eta.rounds[0].rnd.plans[0][1].ops
    assert byte_ops["CombineOp"] > 0


@pytest.mark.parametrize("attach", [False, True], ids=["bare", "observed"])
def test_reliability_metadata_mode_builds_no_byte_op(byte_ops, monkeypatch, attach):
    planned = []
    real = Coordinator.plan_repair
    monkeypatch.setattr(
        Coordinator, "plan_repair", lambda *a, **kw: planned.append(1) or real(*a, **kw)
    )
    coord = _observed(make_system(seed=47, n_data=12), attach)
    spec = ReliabilitySpec(
        scheme="hmbr", n_nodes=12, rack_size=4, n_spares=4, n_stripes=30,
        node_mttf_hours=2500.0, burst_rate_per_year=10.0, horizon_years=1.0,
        n_trials=1, timing="exact", twin_stripe_cap=16,
    )
    coord.simulate_years(spec)
    assert planned and not any(byte_ops.values()), byte_ops


# ------------------------------------------------------------------ #
# byte routes: a handed round, frozen decisions
# ------------------------------------------------------------------ #
def test_a_handed_round_dispatches_bit_exact_blocks(byte_ops):
    handed, fresh = _storm_system(), _storm_system()
    reqs = _storm_requests(handed)
    eta = handed.sched.estimate_finish_s(reqs)
    plans = [p for h in eta.rounds for _, p in h.rnd.plans]
    assert plans and not any(byte_ops.values())
    report = handed.sched.run_requests(reqs, eta=eta)
    assert eta.rounds == [] and all(p._lowering is None for p in plans)  # dispatched
    assert _run_state(handed, report) == _run_state(fresh, fresh.sched.run_requests(reqs))
    assert handed.read("f") == fresh.read("f") and all(handed.scrub().values())


def _touched(ops) -> set[int]:
    return {n for op in ops for n in (
        (op.src_node, op.dst_node) if isinstance(op, TransferOp) else (op.node,)
    )}


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr", "mlf", "rack-hmbr"])
def test_a_helper_dying_after_planning_leaves_the_ops_as_planned(scheme):
    twin, coord = _crashed_system(), _crashed_system()
    affected = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
    (sid, plan), = coord.plan_round(scheme, {min(affected): affected[min(affected)]}).plans
    ((_, expected),) = twin.plan_round(scheme, {sid: affected[sid]}).plans
    victim = coord.layout[sid].placement[_helper(expected)]
    coord.crash_node(victim)
    assert plan.ops == expected.ops  # built now, validated against the plan-time state
    assert victim in _touched(plan.ops)
    runtime = FaultRuntime(coord, FaultInjector(FaultSchedule.empty()))
    assert runtime._plan_touches_dead(plan)
    assert not FaultRuntime(twin, FaultInjector(FaultSchedule.empty()))._plan_touches_dead(expected)


def _helper(plan) -> int:
    """The block index of the plan's first sliced helper."""
    first = next(op for op in plan.ops if isinstance(op, SliceOp))
    return int(first.src.rsplit("/b", 1)[1])


# ------------------------------------------------------------------ #
# what a deferred build may hold
# ------------------------------------------------------------------ #
def _reachable(obj, seen=None):
    """Objects a byte view's build reaches through closures, containers
    and instance attributes (not through module globals)."""
    seen = {} if seen is None else seen
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (str, bytes, int, float, type)):
            continue
        seen[id(o)] = o
        if callable(o) and hasattr(o, "__closure__"):
            stack += [c.cell_contents for c in o.__closure__ or ()]
            stack += list(o.__defaults__ or ())
        elif isinstance(o, dict):
            stack += list(o.keys()) + list(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack += list(o)
        elif hasattr(o, "__dict__") and not isinstance(o, RSCode):
            stack += list(vars(o).values())
    return seen.values()


@pytest.mark.parametrize("case", sorted(_STRIPE_CASES))
def test_a_deferred_build_holds_no_context_cluster_or_plan(case):
    planner, f = _STRIPE_CASES[case]
    plan = planner(_ctx(12, 4, f))
    lowering = plan._lowering
    assert isinstance(lowering, ByteLowering)
    held = list(_reachable(lowering))
    assert any(isinstance(o, Decisions) for o in held)
    assert not any(isinstance(o, (RepairContext, Cluster, RepairPlan)) for o in held)


@pytest.fixture
def graph_checks(monkeypatch):
    """Count task-graph checks, wherever they are called from."""
    calls = []
    check = validate._check_task_graph_acyclic

    def counting(plan):
        calls.append(plan)
        return check(plan)

    monkeypatch.setattr(validate, "_check_task_graph_acyclic", counting)
    monkeypatch.setattr(planner_mod, "_check_task_graph_acyclic", counting)
    return calls


def test_a_byte_round_checks_each_task_graph_once(graph_checks):
    """A ``wide_repair``-shaped round: RS(32,8), 60 data nodes, 4 dead, HMBR
    with verify on.  Planning checks each graph; building its ops does not
    check it again."""
    coord = make_system(n_data=60, n_spare=8, k=32, m=8, seed=5, block_bytes=256)
    coord.write("f", payload(16 * 32 * 256, seed=5))
    for node in range(4):
        coord.crash_node(node)
    res = coord.repair(RepairRequest())
    assert res.ok and res.blocks_recovered > 0
    assert len(graph_checks) == len(res.stripes_repaired) > 1
    assert coord.read("f") == payload(16 * 32 * 256, seed=5)


def test_a_plan_built_outside_plan_stripe_is_checked_before_its_first_op(graph_checks):
    plan = plan_hybrid(_ctx(6, 3, 2), p=0.3)
    assert graph_checks == []
    assert plan.ops and len(graph_checks) == 1

    cyclic = plan_hybrid(_ctx(6, 3, 2), p=0.3)
    first = cyclic.tasks[0]
    after = next(t for t in cyclic.tasks if first.task_id in t.deps)
    cyclic.tasks[0] = dataclasses.replace(first, deps=(*first.deps, after.task_id))
    with pytest.raises(validate.PlanValidationError, match="dependency cycle"):
        cyclic.ops
