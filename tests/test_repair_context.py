"""RepairContext validation and policy tests."""

import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe
from repro.repair.context import RepairContext
from tests.conftest import make_repair_ctx


def test_new_node_map():
    base = make_repair_ctx(k=4, m=2, f=2)

    def ctx(failed, new):
        return RepairContext(
            cluster=base.cluster, code=base.code, stripe=base.stripe,
            failed_blocks=failed, new_nodes=new,
        )

    swapped = ctx([5, 4], [6, 7])
    assert (swapped.new_node_of(5), swapped.new_node_of(4)) == (6, 7)
    with pytest.raises(ValueError):
        ctx([4], [6, 7])
    with pytest.raises(ValueError):
        ctx([4, 5], [6, 6])


def test_basic_properties():
    ctx = make_repair_ctx(k=4, m=2, f=2)
    assert ctx.f == 2 and ctx.k == 4
    assert ctx.new_node_of(4) == 6 and ctx.new_node_of(5) == 7
    assert ctx.surviving_blocks() == [0, 1, 2, 3]
    assert ctx.chosen_survivors() == [0, 1, 2, 3]
    assert ctx.survivor_nodes() == [0, 1, 2, 3]
    assert ctx.prefix("cr") == "s0000:cr"


def test_f_bounds():
    with pytest.raises(ValueError):
        make_repair_ctx(k=4, m=2, f=3)  # f > m


def test_duplicate_failed_blocks_rejected():
    base = make_repair_ctx(k=4, m=2, f=2)
    with pytest.raises(ValueError):
        RepairContext(
            cluster=base.cluster,
            code=base.code,
            stripe=base.stripe,
            failed_blocks=[4, 4],
            new_nodes=[6, 7],
        )


def test_new_node_holding_surviving_block_rejected():
    base = make_repair_ctx(k=4, m=2, f=2)
    with pytest.raises(ValueError):
        RepairContext(
            cluster=base.cluster,
            code=base.code,
            stripe=base.stripe,
            failed_blocks=[4, 5],
            new_nodes=[0, 7],  # node 0 still stores block 0
        )


def test_dead_new_node_rejected():
    base = make_repair_ctx(k=4, m=2, f=2)
    base.cluster[6].fail()
    with pytest.raises(ValueError):
        RepairContext(
            cluster=base.cluster,
            code=base.code,
            stripe=base.stripe,
            failed_blocks=[4, 5],
            new_nodes=[6, 7],
        )


def test_unrecoverable_stripe_detected():
    """Killing more than m nodes makes chosen_survivors fail."""
    ctx = make_repair_ctx(k=4, m=2, f=2)
    ctx.cluster[0].fail()  # a third loss beyond the two failed blocks
    with pytest.raises(ValueError):
        ctx.chosen_survivors()


def test_survivor_policy_best_uplink():
    ups = [10.0, 50.0, 40.0, 30.0, 20.0, 100.0, 100.0, 100.0]
    ctx = make_repair_ctx(k=3, m=2, f=1, uplinks=ups, survivor_policy="best-uplink")
    # survivors among blocks 0..3 (block 4 failed); best uplinks: nodes 1,2,3
    assert ctx.chosen_survivors() == [1, 2, 3]
    ctx2 = make_repair_ctx(k=3, m=2, f=1, uplinks=ups, survivor_policy="first")
    assert ctx2.chosen_survivors() == [0, 1, 2]


def test_unknown_survivor_policy():
    ctx = make_repair_ctx(survivor_policy="nonsense")
    with pytest.raises(ValueError):
        ctx.chosen_survivors()


def test_pick_center_policies():
    downs = [100.0] * 6 + [50.0, 150.0]
    ctx = make_repair_ctx(k=4, m=2, f=2, downlinks=downs)
    assert ctx.pick_center("first") == 6
    assert ctx.pick_center("fastest-downlink") == 7
    with pytest.raises(ValueError):
        ctx.pick_center("nonsense")


def test_repair_matrix_shape():
    ctx = make_repair_ctx(k=5, m=3, f=2)
    rows = ctx.decisions().rows()
    assert len(rows) == 2 and all(len(row) == 5 for row in rows)
