"""Rebalancer tests."""

import pytest

from repro.system.request import RepairRequest

from tests.test_system_coordinator import make_system, payload


def spread(coord):
    counts = coord.layout.blocks_per_node()
    alive = [counts.get(i, 0) for i in coord.cluster.alive_ids()]
    return max(alive) - min(alive)


def test_rebalance_reduces_spread_after_repair():
    coord = make_system(n_data=12, n_spare=3, seed=41, k=4, m=2)
    coord.write("f", payload(60_000, seed=41))
    data = coord.read("f")
    # two failure/repair cycles pile blocks onto ex-spares
    coord.crash_node(0)
    coord.crash_node(1)
    coord.repair(RepairRequest())
    before = spread(coord)
    stats = coord.rebalance()
    after = spread(coord)
    assert after <= before
    assert after <= 1 or stats["moves"] == 0
    # data still fully intact and parity-consistent
    assert coord.read("f") == data
    assert all(coord.scrub().values())


def test_rebalance_respects_stripe_distinctness():
    coord = make_system(n_data=12, n_spare=3, seed=42, k=4, m=2)
    coord.write("f", payload(50_000, seed=42))
    coord.crash_node(2)
    coord.repair(RepairRequest())
    coord.rebalance()
    for stripe in coord.layout:
        assert len(set(stripe.placement)) == stripe.n


def test_rebalance_move_budget():
    coord = make_system(n_data=12, n_spare=3, seed=43, k=4, m=2)
    coord.write("f", payload(80_000, seed=43))
    coord.crash_node(0)
    coord.repair(RepairRequest())
    stats = coord.rebalance(max_moves=1)
    assert stats["moves"] <= 1


def test_rebalance_noop_when_balanced():
    coord = make_system(n_data=8, n_spare=2, seed=44, k=4, m=2)
    coord.write("f", payload(10_000, seed=44))
    coord.rebalance()  # settle
    stats = coord.rebalance()
    assert stats["moves"] <= 1  # already within tolerance
