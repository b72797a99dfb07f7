"""Storage-system component tests: block store, bus, agents, heartbeats."""

import numpy as np
import pytest

from repro.ec.subblock import word_slice
from repro.repair.plan import CombineOp, ConcatOp, SliceOp, TransferOp
from repro.system.agent import Agent, run_plan_ops
from repro.system.blockstore import BlockStore
from repro.system.bus import DataBus
from repro.system.heartbeat import HeartbeatMonitor


# ------------------------------------------------------------------ #
# block store
# ------------------------------------------------------------------ #
def test_blockstore_put_get_delete():
    bs = BlockStore(0)
    bs.put("a", np.arange(8, dtype=np.uint8))
    assert bs.has("a")
    assert bs.names() == ["a"]
    assert len(bs) == 1
    bs.delete("a")
    assert not bs.has("a")
    with pytest.raises(KeyError):
        bs.get("a")


def test_blockstore_overwrite_control():
    bs = BlockStore(0)
    bs.put("a", np.zeros(8, dtype=np.uint8))
    with pytest.raises(KeyError):
        bs.put("a", np.ones(8, dtype=np.uint8))
    bs.put("a", np.ones(8, dtype=np.uint8), overwrite=True)
    assert bs.get("a")[0] == 1


def test_blockstore_capacity_enforced():
    bs = BlockStore(0, capacity_bytes=16)
    bs.put("a", np.zeros(12, dtype=np.uint8))
    with pytest.raises(MemoryError):
        bs.put("b", np.zeros(8, dtype=np.uint8))
    # replacing an existing block accounts for the freed space
    bs.put("a", np.zeros(16, dtype=np.uint8), overwrite=True)
    assert bs.used_bytes() == 16


def test_blockstore_running_byte_count_matches_recomputed_sum():
    def recomputed(store):
        return sum(store.get(n).nbytes for n in store.names())

    agent = Agent(0)
    bs = agent.store
    assert bs.used_bytes() == 0
    bs.put("a", np.zeros(12, dtype=np.uint8))
    bs.put("b", np.zeros(5, dtype=np.uint16))
    assert bs.used_bytes() == recomputed(bs) == 22
    bs.put("a", np.zeros(40, dtype=np.uint8), overwrite=True)
    assert bs.used_bytes() == recomputed(bs) == 50
    with pytest.raises(KeyError):
        bs.put("b", np.zeros(99, dtype=np.uint8))  # refused: count untouched
    assert bs.used_bytes() == 50
    bs.delete("b")
    bs.delete("never-stored")
    assert bs.used_bytes() == recomputed(bs) == 40
    bs.clear()
    assert bs.used_bytes() == recomputed(bs) == 0
    bs.put("c", np.zeros(8, dtype=np.uint8))
    agent.fail()
    assert bs.used_bytes() == recomputed(bs) == 0


def test_blockstore_capacity_fires_on_the_same_put():
    bs = BlockStore(0, capacity_bytes=64)
    for i in range(8):
        bs.put(f"b{i}", np.zeros(8, dtype=np.uint8))  # exactly full: accepted
    with pytest.raises(MemoryError):
        bs.put("one-more", np.zeros(1, dtype=np.uint8))
    assert bs.used_bytes() == 64 and not bs.has("one-more")
    bs.delete("b0")
    bs.put("fits-again", np.zeros(8, dtype=np.uint8))


def test_blockstore_puts_are_linear_in_block_count():
    """Regression: every put re-summed the whole store, so provisioning a
    node was quadratic (20k puts took ~10 s; linear is tens of ms)."""
    import time

    bs = BlockStore(0)
    block = np.zeros(16, dtype=np.uint8)
    t0 = time.perf_counter()
    for i in range(20_000):
        bs.put(f"s{i}", block)
    elapsed = time.perf_counter() - t0
    assert bs.used_bytes() == 20_000 * 16
    assert elapsed < 2.0, f"20k puts took {elapsed:.1f}s - quadratic again?"


# ------------------------------------------------------------------ #
# data bus
# ------------------------------------------------------------------ #
def test_bus_accounting():
    bus = DataBus(rack_of={0: 0, 1: 0, 2: 1})
    bus.record(0, 1, 100)
    bus.record(0, 2, 50)
    assert bus.sent_bytes[0] == 150
    assert bus.received_bytes[1] == 100
    assert bus.cross_rack_bytes == 50
    assert bus.transfer_count == 2
    assert bus.total_bytes() == 150
    bus.reset()
    assert bus.total_bytes() == 0 and bus.cross_rack_bytes == 0


# ------------------------------------------------------------------ #
# agents
# ------------------------------------------------------------------ #
def test_agent_command_execution():
    rng = np.random.default_rng(0)
    buf = rng.integers(0, 256, size=64, dtype=np.uint8)
    a0, a1 = Agent(0), Agent(1)
    a0.store_block("blk", buf)
    bus = DataBus()
    ops = [
        SliceOp(0, "up", "blk", 0.0, 0.5),
        SliceOp(0, "low", "blk", 0.5, 1.0),
        TransferOp(0, 1, "up"),
        TransferOp(0, 1, "low"),
        CombineOp(1, "scaled", (5,), ("up",)),
        ConcatOp(1, "joined", ("up", "low")),
    ]
    run_plan_ops(ops, {0: a0, 1: a1}, bus)
    assert np.array_equal(a1.scratch["joined"], buf)
    from repro.gf.field import gf8

    assert np.array_equal(a1.scratch["scaled"], gf8.scale(5, word_slice(buf, 0, 0.5)))
    assert bus.total_bytes() == 64
    assert a1.compute_seconds > 0
    assert a0.compute_seconds == 0


def test_agent_scratch_shadows_store():
    a = Agent(0)
    a.store_block("x", np.zeros(8, dtype=np.uint8))
    a.scratch["x"] = np.ones(8, dtype=np.uint8)
    assert a._resolve("x")[0] == 1
    a.clear_scratch()
    assert a._resolve("x")[0] == 0


def test_agent_fail_loses_data():
    a = Agent(0)
    a.store_block("x", np.zeros(8, dtype=np.uint8))
    a.scratch["y"] = np.zeros(8, dtype=np.uint8)
    a.fail()
    assert not a.alive
    assert len(a.store) == 0 and not a.scratch


# ------------------------------------------------------------------ #
# heartbeats
# ------------------------------------------------------------------ #
def test_heartbeat_detection():
    mon = HeartbeatMonitor(timeout=10.0)
    mon.register(0, now=0.0)
    mon.register(1, now=0.0)
    mon.beat(0, 8.0)
    assert mon.dead_nodes(now=12.0) == [1]
    assert mon.alive_nodes(now=12.0) == [0]
    mon.beat(1, 13.0)
    assert mon.dead_nodes(now=14.0) == []


def test_heartbeat_unregistered_node():
    mon = HeartbeatMonitor()
    with pytest.raises(KeyError):
        mon.beat(5, 1.0)
    mon.register(5)
    mon.beat(5, 1.0)
    mon.deregister(5)
    assert mon.dead_nodes(1e9) == []
