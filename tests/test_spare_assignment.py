"""Spare-matching policy tests (rack preference, bandwidth tie-break)."""

import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.repair.planner import assign_spares
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def coordinator_with_racked_spares():
    nodes = [Node(i, 100, 100, rack=i // 4) for i in range(8)]
    cluster = Cluster(nodes)
    coord = Coordinator(cluster, RSCode(2, 1), block_bytes=1024)
    coord.add_spare(Node(8, 100, 150, rack=0))
    coord.add_spare(Node(9, 100, 120, rack=0))
    coord.add_spare(Node(10, 100, 200, rack=1))
    return coord


def test_same_rack_spare_preferred():
    coord = coordinator_with_racked_spares()
    out = assign_spares(coord.cluster, [0], [8, 9, 10])
    assert out == {0: 8}  # rack 0 spares win despite node 10's faster downlink


def test_fastest_downlink_tiebreak_within_rack():
    coord = coordinator_with_racked_spares()
    out = assign_spares(coord.cluster, [1], [9, 8, 10])
    assert out == {1: 8}  # 150 > 120 among rack-0 spares


def test_falls_back_to_other_racks():
    coord = coordinator_with_racked_spares()
    out = assign_spares(coord.cluster, [4], [8, 9])  # dead in rack 1, only rack-0 spares
    assert out == {4: 8}


def test_assignment_is_injective():
    coord = coordinator_with_racked_spares()
    out = assign_spares(coord.cluster, [0, 1, 4], [8, 9, 10])
    assert len(set(out.values())) == 3
    assert out[4] == 10  # the rack-1 spare goes to the rack-1 dead node


def test_repair_uses_rack_matched_spare():
    coord = coordinator_with_racked_spares()
    import numpy as np

    data = np.random.default_rng(0).integers(0, 256, 5000, dtype=np.uint8).tobytes()
    coord.write("f", data)
    victim = coord.layout.stripes[0].placement[0]
    victim_rack = coord.cluster[victim].rack
    coord.crash_node(victim)
    report = coord.repair(RepairRequest())
    spare = report.replacements[victim]
    same_rack_spares = [
        s for s in (8, 9, 10) if coord.cluster[s].rack == victim_rack
    ]
    if same_rack_spares:
        assert spare in same_rack_spares
    assert coord.read("f") == data


# ------------------------------------------------------------------ #
# one definition of "free spare": free_spares()
# ------------------------------------------------------------------ #
def _two_stripe_system():
    """Stripe 0 on nodes 0-5, stripe 1 on nodes 6-11, four identical spares."""
    from tests.test_sched_scheduler import place_stripe, uniform_system

    coord = uniform_system(n_data=12, n_spare=4)
    place_stripe(coord, range(0, 6), seed=1)
    place_stripe(coord, range(6, 12), seed=2)
    return coord


def test_committed_metadata_round_reserves_its_spare_everywhere():
    """``stats()``, the plain planner and the fault runtime agree on what is free."""
    from repro.faults.schedule import FaultSchedule

    coord = _two_stripe_system()
    assert coord.stats()["spares_free"] == 4
    coord.crash_node(0)
    timing = coord.plan_repair("hmbr", commit=True)  # metadata only: no bytes stored
    reserved = set(timing.replacement_of.values())
    assert reserved == coord.reserved_spares and len(reserved) == 1
    assert coord.stats()["spares_free"] == 3 == len(coord.free_spares())
    assert not reserved & set(coord.free_spares())

    coord.crash_node(6)
    res = coord.repair(RepairRequest(faults=FaultSchedule.empty()))
    assert res.stripes_repaired == [1]
    assert not reserved & set(res.replacements.values())
    assert not reserved & set(coord.layout[1].placement)


def test_verify_stripe_unknown_id_is_a_key_error():
    coord = _two_stripe_system()
    coord.verify_stripe(0)
    with pytest.raises(KeyError):
        coord.verify_stripe(99)
    with pytest.raises(KeyError):
        coord.layout[99]
