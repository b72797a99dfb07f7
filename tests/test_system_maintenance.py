"""Coordinator maintenance paths: auto scheme, scrub, delete, stats."""

import numpy as np
import pytest

from repro.ec.stripe import block_name
from repro.system.request import RepairRequest
from tests.test_system_coordinator import make_system, payload


def test_auto_scheme_repair():
    coord = make_system(seed=9)
    data = payload(40_000, seed=9)
    coord.write("f1", data)
    coord.crash_node(0)
    coord.crash_node(1)
    report = coord.repair(RepairRequest(scheme="auto"))
    assert report.blocks_recovered >= 1
    assert coord.read("f1") == data


def test_scrub_healthy_system():
    coord = make_system(seed=10)
    coord.write("f1", payload(30_000, seed=10))
    health = coord.scrub()
    assert health and all(health.values())


def test_scrub_detects_silent_corruption():
    coord = make_system(seed=11)
    coord.write("f1", payload(20_000, seed=11))
    stripe = coord.layout.stripes[0]
    node = stripe.placement[0]
    blk = coord.agents[node].read_block(block_name(stripe.stripe_id, 0))
    corrupted = blk.copy()
    corrupted[0] ^= 0xFF
    coord.agents[node].store_block(
        block_name(stripe.stripe_id, 0), corrupted, overwrite=True
    )
    health = coord.scrub()
    assert health[stripe.stripe_id] is False
    others = {sid: ok for sid, ok in health.items() if sid != stripe.stripe_id}
    assert all(others.values())


def test_scrub_flags_stripes_on_dead_nodes():
    coord = make_system(seed=12)
    coord.write("f1", payload(30_000, seed=12))
    coord.crash_node(0)
    health = coord.scrub()
    affected = {
        s.stripe_id for s in coord.layout if 0 in s.placement
    }
    for sid, ok in health.items():
        assert ok == (sid not in affected)


def test_delete_frees_blocks():
    coord = make_system(seed=13)
    coord.write("f1", payload(25_000, seed=13))
    coord.write("f2", payload(25_000, seed=14))
    before = coord.stats()["blocks_stored"]
    freed = coord.delete("f1")
    after = coord.stats()
    assert freed > 0
    assert after["blocks_stored"] == before - freed
    with pytest.raises(KeyError):
        coord.read("f1")
    with pytest.raises(KeyError):
        coord.delete("f1")
    assert coord.read("f2") == payload(25_000, seed=14)


def test_stats_snapshot():
    coord = make_system(n_data=10, n_spare=2, seed=15)
    s0 = coord.stats()
    assert s0["nodes_alive"] == 12 and s0["spares_free"] == 2
    assert s0["files"] == 0 and s0["stripes"] == 0
    coord.write("f1", payload(10_000, seed=15))
    coord.crash_node(0)
    coord.repair(RepairRequest())
    s1 = coord.stats()
    assert s1["files"] == 1
    assert s1["nodes_dead"] == 1
    assert s1["spares_free"] <= 1  # one spare may now hold repaired blocks
    assert s1["bus_bytes"] >= 0
