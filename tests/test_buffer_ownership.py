"""A buffer is immutable once it is stored or sent.

The data plane's one ownership rule, pinned over GF(2^8) and GF(2^16):
``write`` keeps a ``bytes`` payload by reference (its data blocks are
read-only views of it, its bytes viewed as field elements), copies every
other buffer once, and a transfer hands the receiver a read-only view of
the sender's array.  No copy is made where nothing could write, so no stored
block may share memory with a block on another node, and deleting a file
lets go of its payload.
"""

import sys
from itertools import combinations

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import block_name
from repro.gf.field import GF
from repro.system.agent import Agent
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest

K, M, BLOCK_BYTES, N_DATA, N_SPARE, STRIPES = 4, 2, 512, 9, 3, 4
#: whole stripes on both fields: 4 of GF(2^8), 2 of GF(2^16)
NBYTES = STRIPES * K * BLOCK_BYTES

fields = pytest.mark.parametrize("w", [8, 16], ids=["gf8", "gf16"])


def _system(w):
    nodes = [Node(i, 100.0, 100.0) for i in range(N_DATA + N_SPARE)]
    coord = Coordinator(
        Cluster(nodes[:N_DATA]), RSCode(K, M, GF(w)), block_bytes=BLOCK_BYTES,
        block_size_mb=8.0, rng=7,
    )
    for node in nodes[N_DATA:]:
        coord.add_spare(node)
    return coord


def _payload(seed=1, nbytes=NBYTES):
    return np.random.default_rng(seed).integers(0, 256, nbytes, dtype=np.uint8).tobytes()


def _data_blocks(coord, name):
    return [
        coord.agents[coord.layout[sid].placement[b]].read_block(block_name(sid, b))
        for sid in coord.files[name][0]
        for b in range(K)
    ]


def _stored(coord):
    """(node, block name, array) for every stored block."""
    return [
        (node, bname, agent.read_block(bname))
        for node, agent in coord.agents.items()
        for bname in agent.store.names()
    ]


@fields
def test_a_bytes_write_stores_read_only_views_of_the_payload(w):
    coord = _system(w)
    payload = _payload()
    coord.write("f", payload)
    blocks = _data_blocks(coord, "f")
    raw = np.frombuffer(payload, dtype=np.uint8)
    for block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 1
    # by reference on both fields: every data block is the payload's memory,
    # one stored byte per payload byte
    assert all(np.shares_memory(block, raw) for block in blocks)
    assert sum(block.nbytes for block in blocks) == NBYTES
    assert coord.read("f") == payload


@fields
@pytest.mark.parametrize("kind", ["bytearray", "ndarray", "memoryview"])
def test_a_mutable_buffer_is_copied_so_the_caller_may_reuse_it(w, kind):
    coord = _system(w)
    payload = _payload()
    buf = {
        "bytearray": bytearray(payload),
        "ndarray": np.frombuffer(payload, dtype=np.uint8).copy(),
        "memoryview": memoryview(bytearray(payload)),
    }[kind]
    coord.write("f", buf)
    assert not any(
        np.shares_memory(block, np.asarray(buf)) for block in _data_blocks(coord, "f")
    )
    np.asarray(buf)[:] = 0
    assert coord.read("f") == payload


@fields
def test_a_received_buffer_is_a_read_only_view_of_the_senders(w, monkeypatch):
    payload = _payload()
    received = []
    send_to = Agent.send_to

    def spying(self, other, name, rename, bus):
        sent = self._resolve(name)
        before = sent.copy()
        send_to(self, other, name, rename, bus)
        got = other.scratch[rename or name]
        assert got.flags.writeable is False
        assert sent.size == 0 or np.shares_memory(got, sent)  # by reference
        if got.size:
            with pytest.raises(ValueError, match="read-only"):
                got[0] ^= 1
        assert np.array_equal(sent, before)
        received.append(got)

    monkeypatch.setattr(Agent, "send_to", spying)
    for scheme in ("cr", "ir", "hmbr"):
        coord = _system(w)
        coord.write("f", payload)
        for node in coord.layout[0].placement[:M]:
            coord.crash_node(node)
        res = coord.repair(RepairRequest(scheme=scheme))
        assert res.ok and res.blocks_recovered > 0
        assert coord.read("f") == payload and all(coord.scrub().values())
    assert received


@fields
def test_no_two_nodes_hold_overlapping_blocks(w):
    coord = _system(w)
    coord.write("f", _payload(1))
    coord.write("g", bytearray(_payload(2, NBYTES - 100)))

    def assert_disjoint():
        stored = _stored(coord)
        for (n1, b1, a1), (n2, b2, a2) in combinations(stored, 2):
            if n1 != n2:
                assert not np.shares_memory(a1, a2), (n1, b1, n2, b2)

    assert_disjoint()
    coord.update("f", 10, bytes(range(200)))
    assert_disjoint()
    for node in coord.layout[0].placement[:M]:
        coord.crash_node(node)
    assert coord.repair(RepairRequest(scheme="hmbr")).ok
    assert_disjoint()
    assert coord.rebalance()["moves"] > 0
    assert_disjoint()
    assert all(coord.scrub().values())


@fields
def test_delete_lets_go_of_the_payload(w):
    coord = _system(w)
    payload = _payload()
    before = sys.getrefcount(payload)
    coord.write("f", payload)
    assert sys.getrefcount(payload) > before  # held by reference
    coord.delete("f")
    assert sys.getrefcount(payload) == before


@fields
@pytest.mark.parametrize("kind", ["uint16", "strided", "memoryview"])
def test_write_stores_a_buffers_bytes_in_c_order_not_its_items(w, kind):
    coord = _system(w)
    wide = np.arange(300, dtype=np.uint16)
    buf = {
        "uint16": wide,
        "strided": wide.reshape(15, 20)[:, ::2],  # neither C- nor F-contiguous
        "memoryview": memoryview(wide.tobytes()).cast("H"),
    }[kind]
    want = np.asarray(buf).tobytes()  # C order
    receipt = coord.write("f", buf)
    assert receipt.nbytes == len(want) == np.asarray(buf).nbytes
    assert coord.read("f") == want
    assert not any(np.shares_memory(b, np.asarray(buf)) for b in _data_blocks(coord, "f"))


@fields
def test_update_checks_a_buffers_bytes_not_its_items(w):
    coord = _system(w)
    payload = _payload(nbytes=100)
    coord.write("f", payload)
    patch = memoryview(bytes(range(1, 61))).cast("H")  # 30 items, 60 bytes
    with pytest.raises(ValueError, match="outside the file"):
        coord.update("f", 60, patch)  # bytes 60..120 of a 100-byte file
    # nothing written, the stripe padding past the file still zero
    assert coord.read("f") == payload and all(coord.scrub().values())
    assert not np.asarray(_data_blocks(coord, "f")[0]).view(np.uint8)[100:].any()
    coord.update("f", 40, patch)
    assert coord.read("f") == payload[:40] + bytes(range(1, 61))
    assert all(coord.scrub().values())
    coord.update("f", 2, np.array([0x0102, 0x0304], dtype=np.uint16))
    want = bytearray(payload[:40] + bytes(range(1, 61)))
    want[2:6] = np.array([0x0102, 0x0304], dtype=np.uint16).tobytes()
    assert coord.read("f") == bytes(want) and all(coord.scrub().values())


@fields
@pytest.mark.parametrize("kind", ["strided", "fortran", "uint16"])
def test_update_reads_any_buffer_write_reads(w, kind):
    """A patch is its C-order bytes, as a written payload is, whatever its
    layout or item size; the range check counts those bytes."""
    patch = {
        "strided": np.arange(64, dtype=np.uint8)[::2],
        "fortran": np.asfortranarray(np.arange(48, dtype=np.uint8).reshape(6, 8)),
        "uint16": (np.arange(40, dtype=np.uint16) * 257)[::2],  # 20 items, 40 bytes
    }[kind]
    want = np.asarray(patch).tobytes()  # C order
    assert len(want) == patch.nbytes
    coord = _system(w)
    payload = _payload(nbytes=400)
    coord.write("f", payload)
    coord.write("g", patch)
    assert coord.read("g") == want
    coord.update("f", 100, patch)
    payload = payload[:100] + want + payload[100 + len(want):]
    assert coord.read("f") == payload and all(coord.scrub().values())
    with pytest.raises(ValueError, match="outside the file"):
        coord.update("f", 400 - patch.nbytes + 1, patch)
    assert coord.read("f") == payload
    coord.update("f", 400 - patch.nbytes, patch)  # ends at the file's last byte
    assert coord.read("f") == payload[: 400 - len(want)] + want
    assert all(coord.scrub().values())
