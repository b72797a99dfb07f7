"""``Coordinator.read`` returns exactly the written bytes, as one ``bytes``.

A read makes one copy: its output, allocated once, its 2 MiB-aligned
interior advised into huge pages from 4 MiB up, and filled in one pass with
the tail already cut.  Pinned over GF(2^8) and GF(2^16), healthy and degraded,
at every length that meets a block or stripe edge, and against
:meth:`ServingPlane.read_object <repro.workload.serving.ServingPlane.read_object>`,
which joins through the same helper.
"""

import mmap

import numpy as np
import pytest

import repro._bytes as joiner
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.gf.field import GF
from repro.system.coordinator import Coordinator
from repro.workload.generator import WorkloadSpec
from repro.workload.serving import ServingPlane

K, M, BLOCK_BYTES, N_DATA = 4, 2, 1 << 14, 9
MIB = 1 << 20

fields = pytest.mark.parametrize("w", [8, 16], ids=["gf8", "gf16"])


def _system(w):
    nodes = [Node(i, 100.0, 100.0) for i in range(N_DATA)]
    return Coordinator(
        Cluster(nodes), RSCode(K, M, GF(w)), block_bytes=BLOCK_BYTES, block_size_mb=8.0, rng=3
    )


def _lengths(w):
    """0, 1, one block - 1, one stripe payload +- 1, several stripes with a
    tail, and one past 4 MiB (the advised case), in bytes on field ``w``."""
    block = BLOCK_BYTES * w // 8
    stripe = K * block
    return [0, 1, block - 1, stripe - 1, stripe + 1, 3 * stripe + 5, 4 * MIB + 7]


def _payload(nbytes):
    return np.random.default_rng(nbytes).integers(0, 256, nbytes, dtype=np.uint8).tobytes()


def _both_reads(coord, name):
    got = coord.read(name)
    served = ServingPlane(coord, WorkloadSpec()).read_object(name)
    assert type(got) is bytes and type(served) is bytes
    assert got == served
    return got


@pytest.mark.parametrize(
    "w, nbytes",
    [(w, n) for w in (8, 16) for n in _lengths(w)],
    ids=lambda v: f"{v}",
)
def test_read_returns_exactly_the_payload_healthy_and_degraded(w, nbytes):
    coord = _system(w)
    data = _payload(nbytes)
    assert coord.write("f", data).nbytes == nbytes
    assert _both_reads(coord, "f") == data
    # m data blocks of the tail stripe lost: decoded, still the payload
    tail = coord.layout[coord.files["f"][0][-1]].placement
    for node in tail[:M]:
        coord.crash_node(node)
    assert _both_reads(coord, "f") == data
    coord.crash_node(tail[M])  # m + 1 lost
    with pytest.raises(IOError, match="unrecoverable"):
        coord.read("f")


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no huge-page advice")
def test_only_a_read_of_4_mib_or_more_is_advised_over_whole_huge_pages(monkeypatch):
    coord = _system(8)
    payloads = {n: _payload(n) for n in (4 * MIB - 1, 4 * MIB, 4 * MIB + 7)}
    for n, data in payloads.items():
        coord.write(f"f{n}", data)
    advised = []
    monkeypatch.setattr(joiner, "_madvise", lambda *args: advised.append(args))
    for n, data in payloads.items():
        assert coord.read(f"f{n}") == data
    assert len(advised) == 2
    for addr, length, advice in advised:
        assert advice == mmap.MADV_HUGEPAGE
        assert addr % (2 * MIB) == 0 and length % (2 * MIB) == 0 and length >= 2 * MIB


@fields
def test_the_advice_changes_no_byte(w, monkeypatch):
    coord = _system(w)
    data = _payload(4 * MIB + 7)
    coord.write("f", data)
    advised = coord.read("f")
    monkeypatch.setattr(joiner, "_madvise", None)  # a host without the advice
    assert coord.read("f") == advised == data
    coord.crash_node(0)
    assert coord.read("f") == data


@fields
def test_two_reads_return_two_distinct_objects(w):
    coord = _system(w)
    data = _payload(K * BLOCK_BYTES + 3)
    coord.write("f", data)
    first, second = coord.read("f"), coord.read("f")
    assert first == second == data
    assert first is not second and first is not data
    coord.write("empty", b"")
    assert coord.read("empty") == b""
