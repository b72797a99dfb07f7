"""Unit tests for the fault-injection layer (:mod:`repro.faults`).

The chaos harness in ``tests/chaos`` exercises whole repairs; these tests
pin the building blocks in isolation: schedule construction and replay,
injector clock/firing semantics, transfer gating order, journal-resumable
op execution, and the bus's strict byte validation.
"""

import numpy as np
import pytest

from repro.faults import (
    DeadAgent,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    NodeFlapping,
    TransferDropped,
)
from repro.gf.field import gf8
from repro.system.agent import ExecutionJournal
from repro.repair.plan import CombineOp, TransferOp
from repro.system.agent import Agent, run_plan_ops
from repro.system.bus import DataBus


# --------------------------------------------------------------------- #
# FaultSchedule
# --------------------------------------------------------------------- #
def test_schedule_sorts_validates_and_round_trips():
    sched = FaultSchedule.from_tuples(
        [(0.5, "kill", 3), (0.1, "drop", 1), (0.3, "slow", 2, 6.0)]
    )
    assert [e.time for e in sched] == [0.1, 0.3, 0.5]
    assert FaultSchedule.from_tuples(sched.to_tuples()) == sched
    assert [e.target for e in sched.kills()] == [3]
    assert len(FaultSchedule.empty()) == 0


@pytest.mark.parametrize(
    "bad",
    [
        (0.1, "explode", 0),  # unknown kind
        (-0.1, "kill", 0),  # negative time
        (0.1, "flap", 0, 0.0),  # flap needs positive window
        (0.1, "delay", 0, -1.0),  # delay needs positive duration
        (0.1, "slow", 0, 1.0),  # slow needs factor > 1
    ],
)
def test_schedule_rejects_invalid_events(bad):
    with pytest.raises(ValueError):
        FaultSchedule.from_tuples([bad])


def test_random_schedule_is_seed_deterministic_and_bounds_kills():
    targets = list(range(10))
    a = FaultSchedule.random(7, targets, n_events=12, max_kills=2)
    b = FaultSchedule.random(7, targets, n_events=12, max_kills=2)
    c = FaultSchedule.random(8, targets, n_events=12, max_kills=2)
    assert a == b, "same seed must replay the identical schedule"
    assert a != c
    kills = a.kills()
    assert len(kills) <= 2
    assert len({e.target for e in kills}) == len(kills), "kill targets distinct"


# --------------------------------------------------------------------- #
# FaultInjector
# --------------------------------------------------------------------- #
def test_injector_fires_in_time_order_and_drains_once():
    sched = FaultSchedule.from_tuples([(0.2, "kill", 1), (0.1, "slow", 2, 3.0)])
    inj = FaultInjector(sched, tick_s=0.05)
    assert inj.advance(0.0) == []
    assert inj.next_event_time() == pytest.approx(0.1)
    fired = inj.advance(0.15)
    assert [e.kind for e in fired] == ["slow"]
    assert inj.slowdown(2) == 3.0 and inj.slowdown(1) == 1.0
    fired = inj.tick()  # 0.15 -> 0.20: the kill fires exactly at its time
    assert [e.kind for e in fired] == ["kill"]
    assert inj.is_killed(1) and not inj.responsive(1)
    # drain returns everything fired since construction, then nothing
    assert [e.kind for e in inj.drain_fired()] == ["slow", "kill"]
    assert inj.drain_fired() == []
    with pytest.raises(ValueError):
        inj.advance(-1.0)


def test_injector_flap_window_and_exhaustion():
    inj = FaultInjector(FaultSchedule.from_tuples([(0.1, "flap", 4, 0.5)]))
    inj.advance(0.1)
    assert not inj.responsive(4)
    assert inj.flapping_until(4) == pytest.approx(0.6)
    with pytest.raises(NodeFlapping):
        inj.check_transfer(4, 9, 100)
    inj.advance(0.6)  # past the window
    assert inj.responsive(4)
    inj.check_transfer(4, 9, 100)  # no longer raises
    assert inj.exhausted


def test_injector_transfer_gating_order():
    """Armed delays apply (advancing the clock) before drops raise."""
    sched = FaultSchedule.from_tuples(
        [(0.0, "delay", 5, 0.25), (0.0, "drop", 5)]
    )
    inj = FaultInjector(sched)
    inj.advance(0.0)
    with pytest.raises(TransferDropped):
        inj.check_transfer(5, 6, 100)
    assert inj.delays_consumed == 1 and inj.drops_consumed == 1
    assert inj.now == pytest.approx(0.25), "the delay advanced the clock"
    assert inj.delay_accrued_s == pytest.approx(0.25)
    inj.check_transfer(5, 6, 100)  # both one-shots consumed
    assert inj.exhausted


def test_injector_delay_can_fire_later_events_mid_transfer():
    """A consumed delay advances the clock across another event's fire time;
    the nested firing must land in the drain queue for the caller."""
    sched = FaultSchedule.from_tuples([(0.0, "delay", 5, 1.0), (0.5, "kill", 7)])
    inj = FaultInjector(sched)
    inj.advance(0.0)
    inj.drain_fired()  # the armed delay
    with pytest.raises(DeadAgent):
        # the delay fires first, advancing past 0.5 and killing 7 — which is
        # the destination, so the dead-peer check then trips
        inj.check_transfer(5, 7, 100)
    assert [e.kind for e in inj.drain_fired()] == ["kill"]
    assert inj.is_killed(7)


def test_injector_kill_gates_transfers_and_attach_detach():
    inj = FaultInjector(FaultSchedule.from_tuples([(0.0, "kill", 2)]))
    inj.advance(0.0)
    with pytest.raises(DeadAgent):
        inj.check_transfer(2, 3, 10)
    with pytest.raises(DeadAgent):
        inj.check_transfer(3, 2, 10)
    bus = DataBus()
    inj.attach(bus)
    assert bus.fault_hook == inj.check_transfer  # bound-method equality
    with pytest.raises(DeadAgent):
        bus.check(2, 3, 10)
    inj.detach(bus)
    assert bus.fault_hook is None
    bus.check(2, 3, 10)  # no hook: no-op


# --------------------------------------------------------------------- #
# journal-resumable execution
# --------------------------------------------------------------------- #
def _two_agents_with_data():
    a, b = Agent(0), Agent(1)
    a.scratch["x"] = np.arange(32, dtype=gf8.dtype)
    a.scratch["y"] = np.arange(32, dtype=gf8.dtype)[::-1].copy()
    return a, b


def test_run_plan_ops_resumes_from_journal():
    a, b = _two_agents_with_data()
    bus = DataBus()
    ops = [
        CombineOp(node=0, srcs=("x", "y"), coeffs=(1, 1), out="z"),
        TransferOp(src_node=0, dst_node=1, name="z"),
        TransferOp(src_node=0, dst_node=1, name="x", rename="x2"),
    ]
    journal = ExecutionJournal()
    run_plan_ops(ops, {0: a, 1: b}, bus, journal=journal)
    assert journal.completed == 3
    assert bus.transfer_count == 2

    # resume: nothing left to do, so nothing is redone
    run_plan_ops(ops, {0: a, 1: b}, bus, journal=journal)
    assert bus.transfer_count == 2

    # partial journal: only the ops after the checkpoint run
    journal2 = ExecutionJournal(completed=2)
    run_plan_ops(ops, {0: a, 1: b}, bus, journal=journal2)
    assert bus.transfer_count == 3
    assert journal2.completed == 3
    assert np.array_equal(b.scratch["x2"], a.scratch["x"])


def test_journal_reset():
    j = ExecutionJournal(completed=5, transfer_bytes=1024)
    j.reset()
    assert (j.completed, j.transfer_bytes) == (0, 0)


# --------------------------------------------------------------------- #
# fused combines: same (node, srcs) -> one kernel call, ops keep their turns
# --------------------------------------------------------------------- #
def _center_ops():
    """CR's shape: two combines over the same sources, a transfer between."""
    return [
        CombineOp(node=0, srcs=("x", "y"), coeffs=(3, 7), out="p"),
        TransferOp(src_node=0, dst_node=1, name="p"),
        CombineOp(node=0, srcs=("x", "y"), coeffs=(5, 1), out="q"),
    ]


@pytest.fixture
def calls(monkeypatch):
    """Shapes of the coefficient matrices the agents hand to the GF kernel."""
    from repro.gf import matmul_rows

    shapes = []

    def kernel(mat, rows, field):
        shapes.append(mat.shape)
        return matmul_rows(mat, rows, field)

    monkeypatch.setattr("repro.system.agent.matmul_rows", kernel)
    return shapes


def test_same_source_combines_share_one_kernel_call(calls):
    a, b = _two_agents_with_data()
    hooks, order = [], []
    a.obs_hook = lambda node, seconds, nbytes: hooks.append(nbytes)
    ops = _center_ops()
    run_plan_ops(ops, {0: a, 1: b}, DataBus(), before_op=order.append)
    assert calls == [(2, 2)], "both rows in one kernel call"
    assert order == ops and hooks == [64, 64], "every op still takes its own turn"
    x, y = a.scratch["x"], a.scratch["y"]
    assert np.array_equal(a.scratch["p"], gf8.combine((3, 7), [x, y]))
    assert np.array_equal(a.scratch["q"], gf8.combine((5, 1), [x, y]))
    assert a.scratch["q"].base is None, "rows are stored apart, not as views of the product"


def test_fused_row_is_dropped_when_a_source_is_rewritten(calls):
    """A row computed ahead is only valid for the buffers it was computed from."""
    a, b = _two_agents_with_data()
    b.scratch["x"] = np.full(32, 9, dtype=gf8.dtype)
    ops = _center_ops()
    ops[1] = TransferOp(src_node=1, dst_node=0, name="x")  # overwrites a source
    run_plan_ops(ops, {0: a, 1: b}, DataBus())
    assert calls == [(2, 2), (1, 2)]
    assert np.array_equal(a.scratch["q"], gf8.combine((5, 1), [b.scratch["x"], a.scratch["y"]]))


def test_interrupted_fused_group_resumes_from_the_journal(calls):
    a, b = _two_agents_with_data()
    bus, journal = DataBus(), ExecutionJournal()

    def drop(src, dst, nbytes):
        raise TransferDropped(src, dst)

    bus.fault_hook = drop
    ops = _center_ops()
    with pytest.raises(TransferDropped):
        run_plan_ops(ops, {0: a, 1: b}, bus, journal=journal)
    assert journal.completed == 1 and "q" not in a.scratch
    bus.fault_hook = None
    run_plan_ops(ops, {0: a, 1: b}, bus, journal=journal)
    assert journal.completed == 3 and calls == [(2, 2), (1, 2)]
    assert np.array_equal(a.scratch["q"], gf8.combine((5, 1), [a.scratch["x"], a.scratch["y"]]))


# --------------------------------------------------------------------- #
# DataBus.record strictness (satellite: reject nonsense byte counts)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("nbytes", [0, -1, -4096])
def test_bus_record_rejects_nonpositive_nbytes(nbytes):
    bus = DataBus()
    with pytest.raises(ValueError, match="must be positive"):
        bus.record(0, 1, nbytes)
    assert bus.total_bytes() == 0 and bus.transfer_count == 0


def test_bus_record_accounts_positive_transfers():
    bus = DataBus(rack_of={0: 0, 1: 0, 2: 1})
    bus.record(0, 1, 100)  # same rack
    bus.record(0, 2, 50)  # cross rack
    assert bus.total_bytes() == 150
    assert bus.sent_bytes == {0: 150}
    assert bus.received_bytes == {1: 100, 2: 50}
    assert bus.cross_rack_bytes == 50
    assert bus.transfer_count == 2


def test_empty_buffer_send_delivers_but_meters_nothing():
    """Degenerate split fractions produce empty slices: the buffer must
    arrive (downstream concats read it) without touching the meter."""
    a, b = Agent(0), Agent(1)
    a.scratch["e"] = np.empty(0, dtype=gf8.dtype)
    bus = DataBus()
    a.send_to(b, "e", None, bus)
    assert "e" in b.scratch and b.scratch["e"].size == 0
    assert bus.total_bytes() == 0 and bus.transfer_count == 0


# --------------------------------------------------------------------- #
# backoff: capped exponential
# --------------------------------------------------------------------- #
def test_backoff_delay_sequence_is_capped_exponential():
    from repro.faults.runtime import DEFAULT_MAX_BACKOFF_S, backoff_delay

    delays = [backoff_delay(a, 0.5) for a in range(1, 12)]
    # doubles until the 30 s default ceiling, then stays pinned there
    assert delays[:7] == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]
    assert all(d == DEFAULT_MAX_BACKOFF_S for d in delays[6:])
    # huge attempt counts must not overflow float exponentiation
    assert backoff_delay(5000, 0.5) == DEFAULT_MAX_BACKOFF_S


def test_backoff_delay_validation():
    from repro.faults.runtime import backoff_delay

    with pytest.raises(ValueError, match="attempt"):
        backoff_delay(0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        backoff_delay(1, -1.0)


# --------------------------------------------------------------------- #
# plan timeout: a stalled attempt is abandoned and the stripe re-planned
# --------------------------------------------------------------------- #
def test_delay_past_plan_timeout_replans_the_stripe():
    from repro.system.request import RepairRequest
    from tests.test_system_batch import build_system

    def run(plan_timeout_s):
        coord = build_system()
        original = coord.read("f")
        coord.crash_node(3)
        # stall the first transfer of the first stripe's plan
        first_plan = coord.plan_repair("hmbr").plans[0][1]
        sender = next(op.src_node for op in first_plan.ops if isinstance(op, TransferOp))
        stall = FaultSchedule.from_tuples([(0.0, "delay", sender, 5.0)])
        res = coord.repair(RepairRequest(faults=stall, plan_timeout_s=plan_timeout_s))
        assert res.ok and res.report.delay_s == pytest.approx(5.0)
        assert coord.read("f") == original and all(coord.scrub().values())
        assert not any(agent.scratch for agent in coord.agents.values())
        return res

    patient = run(None)  # no timeout: the stalled attempt just finishes late
    assert patient.report.replans == 0
    assert set(patient.report.attempts.values()) == {1}
    hasty = run(1.0)  # the 5 s stall blows a 1 s budget: PlanTimeout, re-plan
    assert hasty.report.replans >= 1
    assert max(hasty.report.attempts.values()) == 2
