"""End-to-end storage-system benchmarks (coordinator + agents)."""

import numpy as np
import pytest

from benchmarks.conftest import attach
from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def build_system(k=16, m=4, n_data=40, n_spare=4, block_bytes=1 << 14, seed=0):
    ds = make_wld(n_data + n_spare, "WLD-4x", seed=seed)
    cluster = Cluster(
        [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data)]
    )
    coord = Coordinator(cluster, RSCode(k, m), block_bytes=block_bytes, rng=seed)
    for j in range(n_spare):
        i = n_data + j
        coord.add_spare(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])))
    return coord


def test_write_path_throughput(benchmark):
    """Client write: encode + place + distribute (real bytes)."""
    coord = build_system()
    data = np.random.default_rng(0).integers(0, 256, size=1_000_000, dtype=np.uint8).tobytes()
    counter = [0]

    def write_once():
        counter[0] += 1
        coord.write(f"file-{counter[0]}", data)

    benchmark(write_once)
    mb = len(data) / 2**20
    attach(benchmark, payload_MB=mb, MBps=mb / benchmark.stats["mean"])


def test_degraded_read_path(benchmark):
    coord = build_system(seed=1)
    data = np.random.default_rng(1).integers(0, 256, size=500_000, dtype=np.uint8).tobytes()
    coord.write("f", data)
    coord.crash_node(0)
    coord.crash_node(1)
    out = benchmark(coord.read, "f")
    assert out == data


def test_full_repair_cycle(benchmark):
    """Crash two nodes, plan + execute + verify the whole repair."""

    def cycle():
        coord = build_system(seed=2, block_bytes=1 << 13)
        data = np.random.default_rng(2).integers(0, 256, size=400_000, dtype=np.uint8).tobytes()
        coord.write("f", data)
        coord.crash_node(0)
        coord.crash_node(1)
        report = coord.repair(RepairRequest(scheme="hmbr"))
        assert coord.read("f") == data
        return report

    report = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert report.blocks_recovered >= 1
    attach(
        benchmark,
        blocks_recovered=report.blocks_recovered,
        simulated_transfer_s=report.makespan_s,
    )


def test_scrub_throughput(benchmark):
    coord = build_system(seed=3)
    data = np.random.default_rng(3).integers(0, 256, size=2_000_000, dtype=np.uint8).tobytes()
    coord.write("f", data)
    health = benchmark(coord.scrub)
    assert all(health.values())
    attach(benchmark, stripes_scrubbed=len(health))
