"""The decode-pipelining model and the ``workers`` twin-system differentials.

Twin-system differentials pin the contract of ``RepairRequest.workers`` — a
repair with ``workers=N`` stores byte-identical blocks on identical
placements with the identical simulated makespan as its ``workers=1`` twin,
healthy *and* after a `repro.faults` storm, and only adds the pipelining
model's report — plus unit coverage for :func:`pipeline_schedule` itself.
"""

import pytest

from repro.parallel import pipeline_schedule
from repro.system.request import RepairRequest

from tests.test_system_batch import build_system, snapshot

WORKERS = 2


# ------------------------------------------------------------------ #
# the pipelining model
# ------------------------------------------------------------------ #
def test_pipeline_schedule_beats_barrier_on_staggered_arrivals():
    rep = pipeline_schedule([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], [1.0] * 4, workers=2)
    assert rep.makespan_s < rep.barrier_makespan_s
    assert rep.saved_s == pytest.approx(rep.barrier_makespan_s - rep.makespan_s)
    assert set(rep.landed_s) == {0, 1, 2, 3}
    for slot in rep.slots:
        assert slot.start_s >= slot.ready_s
        assert slot.done_s == pytest.approx(slot.start_s + slot.cost_s)
        assert 0 <= slot.lane < 2
    assert len(rep) == 4


def test_pipeline_schedule_single_lane_serializes():
    rep = pipeline_schedule([0, 1, 2], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], workers=1)
    assert rep.makespan_s == pytest.approx(6.0)
    assert rep.barrier_makespan_s == pytest.approx(6.0)  # same arrivals: no win


def test_pipeline_schedule_validation():
    with pytest.raises(ValueError):
        pipeline_schedule([0], [0.0, 1.0], [1.0], workers=2)
    with pytest.raises(ValueError):
        pipeline_schedule([0], [0.0], [1.0], workers=0)
    with pytest.raises(ValueError):
        pipeline_schedule([0], [-1.0], [1.0], workers=1)
    empty = pipeline_schedule([], [], [], workers=3)
    assert len(empty) == 0 and empty.makespan_s == 0.0


# ------------------------------------------------------------------ #
# twin-system differentials (the tentpole contract)
# ------------------------------------------------------------------ #
def test_parallel_repair_bit_exact_with_serial_twin():
    a, b = build_system(), build_system()
    for coord in (a, b):
        coord.crash_node(3)
        coord.crash_node(7)
    ra = a.repair(RepairRequest())
    rb = b.repair(RepairRequest(workers=WORKERS))
    data_a, place_a = snapshot(a)
    data_b, place_b = snapshot(b)
    assert data_a == data_b
    assert place_a == place_b
    # the timing plane is decoupled from the pipelining model's lane count
    assert rb.makespan_s == pytest.approx(ra.makespan_s, abs=1e-12)
    assert rb.per_stripe_transfer_s == ra.per_stripe_transfer_s
    assert rb.blocks_recovered == ra.blocks_recovered
    assert rb.workers == WORKERS
    assert rb.pipeline is not None and len(rb.pipeline) == len(rb.stripes_repaired)
    assert rb.pipeline.saved_s >= 0.0
    assert rb.plan_summary["pipeline_saved_s"] == rb.pipeline.saved_s
    # pipelined landings can only improve on the wave barrier
    assert rb.pipeline.makespan_s <= rb.pipeline.barrier_makespan_s + 1e-12
    assert all(b.scrub().values())


def test_parallel_repair_bit_exact_after_fault_storm():
    from repro.faults.schedule import FaultSchedule

    schedule = FaultSchedule.random(
        seed=20230717, targets=list(range(8)), n_events=4, max_kills=1
    )
    a, b = build_system(seed=3), build_system(seed=3)
    for coord in (a, b):
        coord.crash_node(1)
        coord.repair(RepairRequest(faults=schedule))
    for coord in (a, b):
        victim = next(i for i in (4, 6, 8) if coord.cluster[i].alive)
        coord.crash_node(victim)
    a.repair(RepairRequest())
    b.repair(RepairRequest(workers=WORKERS))
    data_a, place_a = snapshot(a)
    data_b, place_b = snapshot(b)
    assert data_a == data_b
    assert place_a == place_b
    assert all(b.scrub().values())


def test_scheduler_route_with_workers_bit_exact():
    a, b = build_system(), build_system()
    for coord in (a, b):
        coord.crash_node(3)
    affected = sorted(a.layout.stripes_with_failures(a.cluster.dead_ids()))
    ra = a.repair([RepairRequest(stripes=tuple(affected))])
    rb = b.repair([RepairRequest(stripes=tuple(affected), workers=WORKERS)])
    assert snapshot(a) == snapshot(b)
    assert rb.makespan_s == pytest.approx(ra.makespan_s, abs=1e-12)
    assert rb.ok and len(rb.jobs) == 1 and rb.jobs[0].state == "done"
