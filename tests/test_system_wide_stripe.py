"""The storage system under genuinely wide stripes."""

import numpy as np
import pytest

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def wide_system(k=32, m=8, n_data=48, n_spare=8, seed=0):
    ds = make_wld(n_data + n_spare, "WLD-8x", seed=seed)
    cluster = Cluster(
        [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data)]
    )
    coord = Coordinator(cluster, RSCode(k, m), block_bytes=2048, block_size_mb=64.0, rng=seed)
    for j in range(n_spare):
        i = n_data + j
        coord.add_spare(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])))
    return coord


def test_wide_stripe_write_repair_cycle():
    coord = wide_system()
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=3 * 32 * 2048, dtype=np.uint8).tobytes()
    coord.write("wide", data)
    assert all(s.n == 40 for s in coord.layout)
    # kill four nodes that hold blocks (multi-block failures guaranteed:
    # stripes are 40 wide over 48 nodes)
    victims = list(coord.layout.stripes[0].placement[:4])
    for v in victims:
        coord.crash_node(v)
    report = coord.repair(RepairRequest(scheme="hmbr"))
    assert report.blocks_recovered >= 4
    assert coord.read("wide") == data
    assert all(coord.scrub().values())


def test_wide_stripe_repair_beats_cr_in_system():
    results = {}
    for scheme in ("cr", "hmbr"):
        coord = wide_system(seed=2)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, size=32 * 2048, dtype=np.uint8).tobytes()
        coord.write("f", data)
        victims = list(coord.layout.stripes[0].placement[:4])
        for v in victims:
            coord.crash_node(v)
        results[scheme] = coord.repair(RepairRequest(scheme=scheme)).makespan_s
    assert results["hmbr"] <= results["cr"] + 1e-9


def test_encode_wrong_block_count_rejected():
    code = RSCode(4, 2)
    with pytest.raises(ValueError):
        code.encode(np.zeros((3, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        code.encode(np.zeros(8, dtype=np.uint8))  # not 2-D


def test_decode_uses_lowest_indices_when_overprovisioned():
    code = RSCode(3, 2)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=(3, 32), dtype=np.uint8)
    stripe = code.encode_stripe(data)
    # all 4 survivors given; decode must still be exact
    avail = {i: stripe[i] for i in (0, 2, 3, 4)}
    out = code.decode(avail, [1])
    assert np.array_equal(out[1], stripe[1])
