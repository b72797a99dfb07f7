"""The unified facade: RepairRequest validation, route equivalence, invariants.

``Coordinator.repair`` takes requests only, and every route a request can
pick — plain round, metadata-only ``plan_repair``, a scheduler job, the
fault runtime, the adaptive runtime — is the same plan → commit → time
core: same flow graph, same spares, same makespan, same stored bytes.
:class:`~repro.system.request.RepairResult` invariants are pinned against
externally-measured ground truth (the ``DataBus`` byte ledger).
"""

import pytest

from repro.ec.stripe import block_name
from repro.faults.runtime import FaultRepairReport
from repro.faults.schedule import FaultSchedule
from repro.obs import Observability
from repro.sched.job import RepairJob
from repro.simnet import NetworkTrace
from repro.system.request import RepairRequest

from tests.test_system_batch import build_system, snapshot


# ------------------------------------------------------------------ #
# RepairRequest validation
# ------------------------------------------------------------------ #
def test_request_defaults_are_todays_behavior():
    req = RepairRequest()
    assert req.scheme == "hmbr" and req.verify
    assert req.priority == "normal"
    assert not req.needs_scheduler()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scheme": "raid6"},
        {"priority": "urgent"},
        {"arrival_s": -1.0},
        {"weight": 0.0},
        {"drift_threshold": 0.0},
        {"max_replans": -1},
        # the re-planner owns its round: refuse a fault schedule or a
        # scheduler field beside it, never drop either
        {"adaptive": True, "faults": FaultSchedule.empty()},
        {"adaptive": True, "stripes": (0,)},
    ],
)
def test_request_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        RepairRequest(**kwargs)


def test_request_normalizes_stripes():
    req = RepairRequest(stripes=[3, 1])
    assert req.stripes == (3, 1)
    assert req.needs_scheduler()  # restricting stripes implies queueing


@pytest.mark.parametrize(
    "kwargs",
    [
        {"priority": "foreground"},
        {"weight": 2.0},
        {"arrival_s": 1.5},
        {"stripes": (0,)},
    ],
)
def test_request_scheduler_routing_predicate(kwargs):
    assert RepairRequest(**kwargs).needs_scheduler()


def test_repair_rejects_non_request_values():
    coord = build_system()
    with pytest.raises(TypeError):
        coord.repair(123)
    with pytest.raises(TypeError):
        coord.repair([])
    with pytest.raises(TypeError):
        coord.repair([RepairRequest(), "hmbr"])
    with pytest.raises(TypeError):
        coord.repair(None)


def test_repair_many_allows_at_most_one_fault_carrier():
    coord = build_system()
    coord.crash_node(3)
    sched = FaultSchedule.random(seed=1, targets=[1], n_events=1, max_kills=1)
    reqs = [
        RepairRequest(faults=sched, priority="foreground"),
        RepairRequest(faults=sched, priority="background"),
    ]
    with pytest.raises(ValueError):
        coord.repair(reqs)


# ------------------------------------------------------------------ #
# one repair core: every route plans, commits and times identically
# ------------------------------------------------------------------ #
def _twin():
    coord = build_system()
    coord.crash_node(3)
    coord.crash_node(7)
    return coord


def _store_bytes(coord):
    return {
        (s.stripe_id, b): coord.agents[node].read_block(block_name(s.stripe_id, b)).tobytes()
        for s in coord.layout
        for b, node in enumerate(s.placement)
    }


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr", "mlf"])
def test_five_routes_are_one_repair(scheme):
    """plain / plan_repair / one scheduler job / empty faults / quiet adaptive.

    Same seeded failure set on twin systems: identical merged flow graph,
    spare assignment, makespan (1e-9) and — for the four byte-moving
    routes — byte-identical stores.
    """
    planned = _twin().plan_repair(scheme)
    reference = None
    for request in (
        RepairRequest(scheme=scheme),
        RepairRequest(scheme=scheme, priority="foreground"),
        RepairRequest(scheme=scheme, faults=FaultSchedule.empty()),
        RepairRequest(scheme=scheme, adaptive=True, network=NetworkTrace.quiet()),
    ):
        coord = _twin()
        # the flow graph this route is about to run (planning only: the
        # stateful center scheduler is rolled back)
        signature = coord.plan_repair(scheme).flow_signature()
        res = coord.repair(request)
        assert res.ok and res.request is request
        assert signature == planned.flow_signature()
        assert res.makespan_s == pytest.approx(planned.makespan_s, abs=1e-9)
        assert res.per_stripe_transfer_s == pytest.approx(planned.per_stripe_s, abs=1e-9)
        assert res.stripes_repaired == planned.stripes
        assert res.blocks_recovered == planned.blocks_recovered
        assert res.bytes_on_wire_mb_model == pytest.approx(planned.bytes_on_wire_mb_model)
        if not request.needs_scheduler():  # (the scheduler keeps spares per job)
            assert res.replacements == planned.replacement_of
        state = (snapshot(coord), _store_bytes(coord), res.bytes_moved)
        if reference is None:
            reference = state
        assert state == reference
        assert all(coord.scrub().values())


def test_repair_takes_requests_only():
    coord = build_system()
    coord.crash_node(2)
    with pytest.raises(TypeError, match="RepairRequest"):
        coord.repair("hmbr")
    with pytest.raises(TypeError):
        coord.repair()
    assert not hasattr(coord, "repair_with_faults")
    assert not hasattr(coord, "submit_repair")
    assert not hasattr(coord, "run_pending")


def _plan_transfer_bytes(plans, block_bytes, word_bytes=8):
    """Bytes a round's ``TransferOp``s move, sized from the ops alone."""
    import numpy as np

    from repro.ec.subblock import word_slice
    from repro.repair.plan import CombineOp, ConcatOp, SliceOp, TransferOp

    block = np.empty(block_bytes, dtype=np.uint8)
    total = 0
    for _, plan in plans:
        size = {}  # (node, buffer) -> bytes
        for op in plan.ops:
            if isinstance(op, SliceOp):
                size[op.node, op.out] = word_slice(block, op.start, op.stop, word_bytes).nbytes
            elif isinstance(op, CombineOp):
                size[op.node, op.out] = size[op.node, op.srcs[0]]
            elif isinstance(op, ConcatOp):
                size[op.node, op.out] = sum(size[op.node, p] for p in op.parts)
            elif isinstance(op, TransferOp):
                moved = size[op.src_node, op.name]
                size[op.dst_node, op.rename or op.name] = moved
                total += moved
    return total


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr", "mlf", "rack-hmbr"])
def test_every_request_moves_its_plans_bytes(scheme):
    """The agents execute the scheme's plan, whatever ``batched`` says: the
    bus carries exactly the plan's transfers (CR-shaped shipping for every
    scheme was the deleted bypass) and the stores end identical."""
    reference = None
    for batched in (False, True):
        coord = _twin()
        planned = coord.plan_repair(scheme)
        res = coord.repair(RepairRequest(scheme=scheme, batched=batched))
        assert res.bytes_moved == _plan_transfer_bytes(planned.plans, coord.block_bytes)
        assert res.makespan_s == pytest.approx(planned.makespan_s, abs=1e-9)
        assert all(coord.scrub().values())
        state = (snapshot(coord), _store_bytes(coord), res.bytes_moved)
        reference = reference or state
        assert state == reference


def test_fault_request_exposes_the_runtime_report():
    schedule = FaultSchedule.random(
        seed=20230717, targets=list(range(8)), n_events=4, max_kills=1
    )
    coord = build_system(seed=3)
    coord.crash_node(1)
    res = coord.repair(RepairRequest(faults=schedule))
    assert isinstance(res.report, FaultRepairReport) and res.report.rounds >= 1
    assert set(res.report.attempts) == set(res.stripes_repaired)


# ------------------------------------------------------------------ #
# request lists: the scheduler route
# ------------------------------------------------------------------ #
def test_request_list_runs_contending_jobs():
    coord = build_system()
    coord.crash_node(3)
    coord.crash_node(7)
    affected = sorted(coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    assert len(affected) >= 2
    first, second = tuple(affected[::2]), tuple(affected[1::2])
    res = coord.repair(
        [
            RepairRequest(stripes=first, priority="foreground"),
            RepairRequest(stripes=second, priority="background"),
        ]
    )
    assert res.makespan_s == pytest.approx(res.report.makespan_s, abs=1e-12)
    assert res.jobs == res.report.jobs and res.report.waves >= 1
    assert res.ok and len(res.jobs) == 2
    assert {j.priority for j in res.jobs} == {"foreground", "background"}
    assert all(j.state == "done" for j in res.jobs)
    assert sorted(res.stripes_repaired) == affected


@pytest.mark.parametrize("field", ["adaptive"])
def test_request_list_rejects_round_only_fields(field):
    """It does not compose with scheduler jobs: refuse, never silently ignore."""
    coord = build_system()
    coord.crash_node(3)
    req = RepairRequest(network=NetworkTrace.quiet(), **{field: True})
    with pytest.raises(ValueError, match=field):
        coord.repair([req])
    with pytest.raises(ValueError, match=field):
        coord.repair([RepairRequest(), req])
    assert coord.sched.queue_depth == 0  # rejected before anything queued


def test_request_list_rejects_mixed_verify():
    """A run verifies every stripe it repairs or none: requests that disagree
    on ``verify`` are refused before anything queues — on the facade, on
    the scheduler, and in a serving run's repair storm — never run
    unverified under a result that reports ``verify=True``."""
    from repro.workload import ServeRequest, WorkloadSpec

    coord = build_system()
    coord.crash_node(3)
    mixed = [
        RepairRequest(priority="foreground"),
        RepairRequest(priority="background", verify=False),
    ]
    with pytest.raises(ValueError, match="verify"):
        coord.repair(mixed)
    with pytest.raises(ValueError, match="verify"):
        coord.sched.run_requests(mixed)
    assert coord.sched.queue_depth == 0
    with pytest.raises(ValueError, match="verify"):
        ServeRequest(WorkloadSpec(), repair=mixed)
    res = coord.repair([RepairRequest(priority="foreground", verify=False)] * 2)
    assert res.ok and res.request.verify is False


def test_scheduled_faults_keep_the_requests_retry_knobs():
    """``max_retries`` & co. reach the fault runtime on the scheduler route."""
    from repro.faults.errors import RepairAborted

    drops = FaultSchedule.from_tuples([(0.0, "drop", n) for n in range(8)])
    plain = build_system()
    plain.crash_node(3)
    with pytest.raises(RepairAborted):
        plain.repair(RepairRequest(faults=drops, max_retries=0))

    queued = build_system()
    queued.crash_node(3)
    res = queued.repair(
        RepairRequest(faults=drops, max_retries=0, priority="background")
    )
    assert not res.ok
    assert [j.state for j in res.jobs] == ["failed"]
    assert "RepairAborted" in res.jobs[0].error


def test_single_scheduled_request_routes_through_scheduler():
    coord = build_system()
    coord.crash_node(3)
    res = coord.repair(RepairRequest(priority="foreground"))
    assert len(res.jobs) == 1 and res.jobs[0].priority == "foreground"
    assert res.jobs[0].wave is not None
    assert res.report.waves >= 1
    assert all(coord.scrub().values())


# ------------------------------------------------------------------ #
# RepairResult invariants
# ------------------------------------------------------------------ #
def test_result_bytes_moved_equals_bus_delta():
    coord = build_system()
    coord.crash_node(3)
    before = coord.bus.total_bytes()
    res = coord.repair(RepairRequest())
    assert res.bytes_moved == coord.bus.total_bytes() - before
    assert res.bytes_moved > 0
    # a second round with nothing dead moves nothing
    before = coord.bus.total_bytes()
    res2 = coord.repair(RepairRequest())
    assert res2.bytes_moved == 0 and res2.stripes_repaired == []


def test_result_bytes_moved_equals_bus_delta_on_every_route():
    sched = FaultSchedule.random(seed=5, targets=list(range(8)), n_events=2, max_kills=1)
    for req in (
        RepairRequest(batched=True),
        RepairRequest(priority="background"),
        RepairRequest(faults=sched),
    ):
        coord = build_system()
        coord.crash_node(3)
        before = coord.bus.total_bytes()
        res = coord.repair(req)
        assert res.bytes_moved == coord.bus.total_bytes() - before
        assert res.request is req and res.ok


def test_result_carries_request_and_stripe_accounting():
    coord = build_system()
    coord.crash_node(3)
    req = RepairRequest()
    res = coord.repair(req)
    assert res.request is req
    assert sorted(res.per_stripe_transfer_s) == sorted(res.stripes_repaired)
    assert res.makespan_s == pytest.approx(
        max(res.per_stripe_transfer_s.values()), abs=1e-12
    )
    assert res.jobs[0].stripes_repaired == res.stripes_repaired


# ------------------------------------------------------------------ #
# one assembly path: every route's result is its jobs' totals
# ------------------------------------------------------------------ #
_DEGRADE = NetworkTrace.degrade(range(2, 12), at_time=0.6, factor=20)


def _kills():
    return FaultSchedule.random(seed=20230717, targets=list(range(8)), n_events=4, max_kills=1)


_RESULT_ROUTES = {
    "plain": lambda: RepairRequest(),
    "network": lambda: RepairRequest(network=_DEGRADE),
    "faults": lambda: RepairRequest(faults=_kills()),
    "adaptive": lambda: RepairRequest(adaptive=True, network=_DEGRADE),
    "scheduled": lambda: RepairRequest(priority="background"),
    "scheduled-faults": lambda: RepairRequest(priority="background", faults=_kills()),
    "request-list": lambda: [
        RepairRequest(priority="foreground"),
        RepairRequest(priority="background"),
    ],
}


@pytest.mark.parametrize("route", sorted(_RESULT_ROUTES))
def test_result_totals_are_its_jobs(route):
    """Each number is stored once, on the jobs; the result's totals are
    theirs, whichever route ran."""
    coord = build_system(seed=3)
    coord.crash_node(1)
    res = coord.repair(_RESULT_ROUTES[route]())
    assert res.ok and res.jobs
    assert all(isinstance(j, RepairJob) for j in res.jobs)
    assert res.blocks_recovered == sum(j.blocks_recovered for j in res.jobs) > 0
    assert res.bytes_on_wire_mb_model == sum(j.bytes_on_wire_mb_model for j in res.jobs)
    assert res.stripes_repaired == sorted({s for j in res.jobs for s in j.stripes_repaired})
    assert res.makespan_s == pytest.approx(max(j.finish_s for j in res.jobs), abs=1e-9)
    if not res.request.needs_scheduler():
        assert len(res.jobs) == 1 and res.jobs[0].wave is None


@pytest.mark.parametrize("route", sorted(_RESULT_ROUTES))
def test_every_route_feeds_the_repair_metrics(route):
    """``repair.runs`` counts completed repairs, scheduled ones too."""
    coord = build_system(seed=3)
    obs = Observability()
    obs.attach(coord)
    coord.crash_node(1)
    res = coord.repair(_RESULT_ROUTES[route]())
    assert obs.metrics.counter("repair.runs").value == 1
    assert obs.metrics.counter("repair.blocks_recovered").value == res.blocks_recovered > 0
