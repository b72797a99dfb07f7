"""Chaos harness: randomized fault schedules against full stripe repairs.

Every iteration builds a fresh system, writes a file, crashes one node, then
runs a repair under a seed-derived :class:`FaultSchedule` mixing kills,
flaps, drops, delays, and slowdowns.  After the storm the harness asserts
the two properties that make the simulator trustworthy:

* **bit-exactness** — every block of every stripe (including blocks that
  were re-planned onto fresh spares mid-repair) equals the originally
  encoded bytes, and a full file read round-trips;
* **conservation** — the data bus metered exactly the bytes the execution
  journals moved (retries included), and the fluid simulator charged
  exactly the model-scale bytes of the committed plans.

The schedule seed is baked into the test id and printed on failure; replay
with ``pytest tests/chaos -k seed<N>`` (same ``--chaos-seed``).
"""

import numpy as np
import pytest

from repro.ec.stripe import block_name
from repro.faults import FaultSchedule
from repro.system.request import RepairRequest

pytestmark = pytest.mark.chaos


def _payload(nbytes, seed):
    return np.random.default_rng(seed).integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def _snapshot_blocks(coord):
    """(stripe id, block index) -> original coded bytes, straight after write."""
    out = {}
    for stripe in coord.layout:
        for b, node in enumerate(stripe.placement):
            out[(stripe.stripe_id, b)] = coord.agents[node].read_block(
                block_name(stripe.stripe_id, b)
            ).copy()
    return out


def _assert_bit_exact(coord, originals):
    for stripe in coord.layout:
        for b, node in enumerate(stripe.placement):
            agent = coord.agents[node]
            assert agent.alive, f"stripe {stripe.stripe_id} block {b} on dead node {node}"
            got = agent.read_block(block_name(stripe.stripe_id, b))
            want = originals[(stripe.stripe_id, b)]
            assert np.array_equal(got, want), (
                f"stripe {stripe.stripe_id} block {b} differs from the original"
            )


def test_randomized_schedules(chaos_system, chaos_seed):
    """≥20 seed-derived storms (see --chaos-iterations): always bit-exact."""
    rng = np.random.default_rng(chaos_seed)
    coord = chaos_system(chaos_seed)
    data = _payload(40_000, chaos_seed)
    coord.write("f", data)
    originals = _snapshot_blocks(coord)

    first_down = int(rng.integers(0, 16))
    coord.crash_node(first_down)
    targets = [i for i in range(16) if coord.cluster[i].alive]
    schedule = FaultSchedule.random(
        chaos_seed,
        targets,
        n_events=int(rng.integers(3, 8)),
        horizon_s=float(rng.uniform(0.05, 0.6)),
        max_kills=coord.code.m - 1,  # 1 crash + m-1 kills stays recoverable
    )
    bus_before = coord.bus.total_bytes()
    res = coord.repair(
        RepairRequest(faults=schedule, scheme="hmbr", max_retries=10, base_backoff_s=0.25)
    )
    report = res.report

    # the repair completed: every block restored, bit-for-bit
    _assert_bit_exact(coord, originals)
    assert coord.read("f") == data
    assert coord.scrub() == {s.stripe_id: True for s in coord.layout}

    # conservation: bus bytes == journal-metered bytes actually moved
    assert report.executed_transfer_bytes == coord.bus.total_bytes() - bus_before, (
        f"schedule seed {chaos_seed}: bus/journal byte mismatch"
    )
    # conservation: fluid-sim bytes == committed plans' model-scale bytes
    assert report.sim_bytes_mb == pytest.approx(res.bytes_on_wire_mb_model), (
        f"schedule seed {chaos_seed}: sim/model byte mismatch"
    )
    # every scheduled kill fired and was confirmed dead via heartbeats
    for ev in schedule.kills():
        assert ev in report.events_fired
        assert ev.target in report.dead_nodes


def test_helper_killed_mid_transfer_replans(chaos_system):
    """The acceptance scenario: a helper dies mid-transfer, repair re-plans."""
    coord = chaos_system(7)
    data = _payload(30_000, 7)
    coord.write("f", data)
    originals = _snapshot_blocks(coord)
    coord.crash_node(0)
    # a surviving member of a stripe that lost a block: a guaranteed helper
    stripe = next(s for s in coord.layout if 0 in s.placement)
    helper = next(n for n in stripe.placement if n != 0)
    schedule = FaultSchedule.from_tuples([(0.01, "kill", helper)])

    report = coord.repair(RepairRequest(faults=schedule, scheme="hmbr")).report

    assert report.replans >= 1, "the kill must abort a plan and force a re-plan"
    assert helper in report.detections, "death must be confirmed via heartbeats"
    _assert_bit_exact(coord, originals)
    assert coord.read("f") == data


def test_transient_storm_resumes_without_redoing_work(chaos_system):
    """Drops and flaps retry the same plan; completed ops are not redone."""
    coord = chaos_system(11)
    data = _payload(20_000, 11)
    coord.write("f", data)
    originals = _snapshot_blocks(coord)
    coord.crash_node(3)
    stripe = next(s for s in coord.layout if 3 in s.placement)
    helper = next(n for n in stripe.placement if n != 3)
    schedule = FaultSchedule.from_tuples(
        [
            (0.002, "drop", helper),
            (0.004, "drop", helper),
            (0.006, "flap", helper, 0.4),
            (0.001, "slow", helper, 5.0),
        ]
    )
    bus_before = coord.bus.total_bytes()
    report = coord.repair(
        RepairRequest(faults=schedule, scheme="hmbr", base_backoff_s=0.1)
    ).report

    assert report.retries >= 2
    assert report.drops == 2
    assert report.replans == 0, "transient faults must not force a re-plan"
    assert report.wasted_transfer_bytes == 0, "resumed attempts redo no transfers"
    assert report.executed_transfer_bytes == coord.bus.total_bytes() - bus_before
    _assert_bit_exact(coord, originals)
    assert coord.read("f") == data


def test_inactive_faults_zero_behavior_change(chaos_system):
    """Empty schedule ⇒ op-for-op identical to the plain repair path."""
    for scheme in ("cr", "ir", "hmbr"):
        plain = chaos_system(5)
        faulty = chaos_system(5)
        data = _payload(50_000, 5)
        plain.write("f", data)
        faulty.write("f", data)
        for node in (0, 1):
            plain.crash_node(node)
            faulty.crash_node(node)

        ref = plain.repair(RepairRequest(scheme=scheme))
        rep = faulty.repair(RepairRequest(faults=FaultSchedule.empty(), scheme=scheme))

        assert plain.bus.total_bytes() == faulty.bus.total_bytes()
        assert plain.bus.sent_bytes == faulty.bus.sent_bytes
        assert plain.bus.received_bytes == faulty.bus.received_bytes
        assert plain.bus.transfer_count == faulty.bus.transfer_count
        assert ref.bytes_on_wire_mb_model == rep.bytes_on_wire_mb_model
        assert ref.makespan_s == pytest.approx(rep.makespan_s)
        placements = lambda c: {s.stripe_id: list(s.placement) for s in c.layout}
        assert placements(plain) == placements(faulty)
        assert plain.read("f") == faulty.read("f") == data
