"""Failure-storm integration: repeated failure/repair waves until spares run out."""

import numpy as np
import pytest

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def storm_system(n_data=20, n_spare=6, k=6, m=3, seed=0):
    ds = make_wld(n_data + n_spare, "WLD-4x", seed=seed)
    cluster = Cluster(
        [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data)]
    )
    coord = Coordinator(cluster, RSCode(k, m), block_bytes=2048, rng=seed)
    for j in range(n_spare):
        i = n_data + j
        coord.add_spare(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])))
    return coord


def test_sequential_failure_waves():
    """Three waves of failures, each repaired before the next hits."""
    coord = storm_system(seed=51)
    rng = np.random.default_rng(51)
    data = rng.integers(0, 256, size=120_000, dtype=np.uint8).tobytes()
    coord.write("f", data)
    victims_per_wave = [[0, 1], [5], [9, 14]]
    for wave in victims_per_wave:
        for v in wave:
            if coord.cluster[v].alive:
                coord.crash_node(v)
        coord.repair(RepairRequest(scheme="hmbr"))
        assert coord.read("f") == data
        assert all(coord.scrub().values())
    # six nodes died in total; data survived every wave
    assert coord.stats()["nodes_dead"] == 5  # node could repeat; count actual
    assert coord.read("f") == data


def test_repaired_spare_can_fail_too():
    """A spare that received repaired blocks dies next — repair again."""
    coord = storm_system(seed=52)
    rng = np.random.default_rng(52)
    data = rng.integers(0, 256, size=60_000, dtype=np.uint8).tobytes()
    coord.write("f", data)
    victim = coord.layout.stripes[0].placement[0]
    coord.crash_node(victim)
    report1 = coord.repair(RepairRequest())
    spare_used = report1.replacements[victim]
    # now the spare itself dies
    coord.crash_node(spare_used)
    report2 = coord.repair(RepairRequest())
    assert spare_used in report2.replacements
    assert coord.read("f") == data
    assert all(coord.scrub().values())


def test_storm_exhausts_spares_cleanly():
    coord = storm_system(n_spare=1, seed=53)
    rng = np.random.default_rng(53)
    data = rng.integers(0, 256, size=60_000, dtype=np.uint8).tobytes()
    coord.write("f", data)
    held = sorted({n for s in coord.layout for n in s.placement})
    coord.crash_node(held[0])
    coord.repair(RepairRequest())
    coord.crash_node(held[1])
    with pytest.raises(RuntimeError):
        coord.repair(RepairRequest())
    # degraded but alive: reads still work within tolerance
    assert coord.read("f") == data


def test_beyond_tolerance_data_loss_detected():
    coord = storm_system(k=4, m=2, seed=54)
    rng = np.random.default_rng(54)
    data = rng.integers(0, 256, size=4 * 2048, dtype=np.uint8).tobytes()  # one stripe
    coord.write("f", data)
    stripe = coord.layout.stripes[0]
    for v in stripe.placement[:3]:  # 3 > m = 2: unrecoverable
        coord.crash_node(v)
    with pytest.raises(IOError):
        coord.read("f")
    with pytest.raises(ValueError):
        coord.repair(RepairRequest())  # planner reports the stripe beyond tolerance