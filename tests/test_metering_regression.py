"""Regression pins for agent compute metering and bus byte accounting.

A fixed system — (k=4, m=2) over 12 nodes + 4 spares, 8 KiB blocks,
``rng=1234`` — always produces the same placements, the same repair plans
and therefore the same bus traffic.  These tests hard-code those numbers so
an accidental change to slicing, transfer emission, or bus accounting shows
up as a diff against known-good values rather than a silent drift.

``Agent.compute_seconds`` is wall-clock and cannot be pinned to a constant;
it is pinned *structurally* (exactly which agents accrue compute) and
*exactly* under a patched deterministic clock.
"""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.gf.field import gf8
from repro.repair.plan import CombineOp
from repro.system.agent import Agent
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest

K, M, F, BLOCK_BYTES = 4, 2, 2, 8192

# scheme -> (total bus bytes, transfer count, model wire MB,
#            per-node sent bytes, per-node received bytes,
#            node ids that accrue GF compute)
PINNED = {
    "cr": (
        40_960,
        5,
        80.0,
        {3: 8192, 6: 8192, 7: 8192, 11: 8192, 12: 8192},
        {12: 32_768, 13: 8192},
        [12],
    ),
    "ir": (
        65_536,
        8,
        128.0,
        {3: 16_384, 6: 16_384, 7: 16_384, 11: 16_384},
        {6: 16_384, 7: 16_384, 11: 16_384, 12: 8192, 13: 8192},
        [3, 6, 7, 11, 12, 13],
    ),
    "hmbr": (
        59_392,
        13,
        116.0,
        {3: 14_336, 6: 14_336, 7: 14_336, 11: 14_336, 12: 2048},
        {6: 12_288, 7: 12_288, 11: 12_288, 12: 14_336, 13: 8192},
        [3, 6, 7, 11, 12, 13],
    ),
}


def _build():
    nodes = [Node(i, 100.0, 100.0) for i in range(12)]
    coord = Coordinator(
        Cluster(nodes),
        RSCode(K, M),
        block_bytes=BLOCK_BYTES,
        block_size_mb=16.0,
        rng=1234,
        heartbeat_timeout=5.0,
    )
    for j in range(4):
        coord.add_spare(Node(12 + j, 100.0, 100.0))
    return coord


def _payload():
    return np.random.default_rng(99).integers(0, 256, size=65_536, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_bus_accounting_pinned(scheme):
    expect_total, expect_count, expect_wire, expect_sent, expect_recv, expect_cpu = PINNED[scheme]
    coord = _build()
    data = _payload()
    coord.write("f", data)
    assert coord.bus.total_bytes() == 0, "writes do not cross the bus"

    # crash both owners of stripe 0's first two blocks: a true multi-block repair
    stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
    victims = list(stripe0.placement[:2])
    for v in victims:
        coord.crash_node(v)

    report = coord.repair(RepairRequest(scheme=scheme))

    assert coord.bus.total_bytes() == expect_total
    assert coord.bus.transfer_count == expect_count
    assert coord.bus.sent_bytes == expect_sent
    assert coord.bus.received_bytes == expect_recv
    assert coord.bus.cross_rack_bytes == 0  # single-rack fixture
    assert report.bytes_on_wire_mb_model == pytest.approx(expect_wire)
    # conservation inside the bus itself
    assert sum(coord.bus.sent_bytes.values()) == sum(coord.bus.received_bytes.values())
    assert coord.read("f") == data

    # compute accrues exactly where the plan placed GF work, nowhere else
    with_compute = sorted(i for i, a in coord.agents.items() if a.compute_seconds > 0)
    assert with_compute == expect_cpu
    for i in expect_cpu:
        assert coord.agents[i].compute_seconds > 0.0


def test_hmbr_wire_bytes_beat_ir():
    """The paper's headline: hybrid repair moves fewer model bytes than IR."""
    assert PINNED["hmbr"][2] < PINNED["ir"][2]
    assert PINNED["cr"][2] < PINNED["hmbr"][2]  # CR is wire-optimal here


def test_compute_seconds_exact_under_patched_clock(monkeypatch):
    """With a deterministic clock, compute_seconds is pinned exactly.

    ``do_combine`` brackets the GF kernel with two ``perf_counter`` calls,
    so a clock advancing 1.0 per call accrues exactly ``1.0 * slowdown``.
    """
    ticks = iter(range(1_000_000))
    monkeypatch.setattr(
        "repro.system.agent.time.perf_counter", lambda: float(next(ticks))
    )
    agent = Agent(0)
    agent.scratch["a"] = np.arange(64, dtype=gf8.dtype)
    agent.scratch["b"] = np.arange(64, dtype=gf8.dtype)
    op = CombineOp(node=0, srcs=("a", "b"), coeffs=(1, 2), out="c")

    agent.do_combine(op)
    assert agent.compute_seconds == pytest.approx(1.0)
    agent.slowdown = 4.0  # degraded node: metered compute scales
    agent.do_combine(op)
    assert agent.compute_seconds == pytest.approx(5.0)
