"""Delta-parity update-path tests."""

import pytest

from tests.test_system_coordinator import make_system, payload
from repro.system.request import RepairRequest


def test_update_roundtrip_and_parity_consistency():
    coord = make_system(seed=31)
    data = bytearray(payload(30_000, seed=31))
    coord.write("f", bytes(data))
    patch = payload(500, seed=32)
    stats = coord.update("f", offset=1234, patch=patch)
    data[1234 : 1234 + 500] = patch
    assert coord.read("f") == bytes(data)
    assert stats["blocks_patched"] >= 1
    assert stats["parity_deltas"] == stats["blocks_patched"] * coord.code.m
    # parity must still verify (scrub recomputes and compares)
    assert all(coord.scrub().values())


def test_update_spanning_blocks_and_stripes():
    coord = make_system(seed=33, block_bytes=2048)
    data = bytearray(payload(40_000, seed=33))
    coord.write("f", bytes(data))
    # patch crossing multiple block boundaries
    patch = payload(6000, seed=34)
    stats = coord.update("f", offset=1000, patch=patch)
    data[1000:7000] = patch
    assert coord.read("f") == bytes(data)
    assert stats["blocks_patched"] >= 3
    assert all(coord.scrub().values())


def test_update_validation():
    coord = make_system(seed=35)
    coord.write("f", payload(1000, seed=35))
    with pytest.raises(KeyError):
        coord.update("missing", 0, b"x")
    with pytest.raises(ValueError):
        coord.update("f", 999, b"xx")  # runs past end of file
    with pytest.raises(ValueError):
        coord.update("f", -1, b"x")


def test_update_then_repair_preserves_new_content():
    """Repair after an update must reconstruct the *updated* block."""
    coord = make_system(seed=36)
    data = bytearray(payload(25_000, seed=36))
    coord.write("f", bytes(data))
    patch = payload(800, seed=37)
    coord.update("f", offset=0, patch=patch)
    data[:800] = patch
    # crash the node holding the stripe-0 block that starts at offset 0
    victim = coord.layout.stripes[0].placement[0]
    coord.crash_node(victim)
    coord.repair(RepairRequest(scheme="hmbr"))
    assert coord.read("f") == bytes(data)


def test_update_survives_degraded_parity_node():
    """Updating while a parity node is down: data updates, dead parity is
    skipped, and the subsequent repair reconstructs consistent parity."""
    coord = make_system(seed=38)
    data = bytearray(payload(8 * 2048, seed=38))  # exactly one stripe
    coord.write("f", bytes(data))
    stripe = coord.layout.stripes[0]
    parity_node = stripe.placement[coord.code.k]  # first parity block's node
    coord.crash_node(parity_node)
    patch = payload(300, seed=39)
    coord.update("f", offset=100, patch=patch)
    data[100:400] = patch
    assert coord.read("f") == bytes(data)
    coord.repair(RepairRequest(scheme="cr"))
    assert all(coord.scrub().values())
    assert coord.read("f") == bytes(data)


def test_update_ships_only_the_patched_span():
    """Regression: a small patch moved (and GF-multiplied) a whole block per
    parity node.  The bus must grow by alive parities x span."""
    bb = 2048
    coord = make_system(seed=41, block_bytes=bb)
    k, m = coord.code.k, coord.code.m
    data = bytearray(payload(3 * k * bb, seed=41))
    coord.write("f", bytes(data))
    cases = [
        (100, 64, 1),  # inside one block
        (bb - 10, 30, 2),  # straddles a block boundary
        (k * bb - 7, 20, 2),  # straddles a stripe boundary
        (2 * bb, bb, 1),  # exactly one whole block
    ]
    for i, (offset, size, blocks) in enumerate(cases):
        patch = payload(size, seed=42 + i)
        sent, transfers = coord.bus.total_bytes(), coord.bus.transfer_count
        stats = coord.update("f", offset, patch)
        data[offset : offset + size] = patch
        assert stats["blocks_patched"] == blocks
        assert stats["parity_deltas"] == len(stats["deltas"]) == blocks * m
        assert len({(sid, b) for sid, b, *_ in stats["deltas"]}) == blocks
        assert coord.bus.total_bytes() - sent == m * size
        assert coord.bus.transfer_count - transfers == blocks * m
    assert coord.read("f") == bytes(data)
    assert all(coord.scrub().values())
    # a dead parity node receives nothing
    coord.crash_node(coord.layout.stripes[0].placement[k])
    sent = coord.bus.total_bytes()
    coord.update("f", 5, payload(40, seed=50))
    assert coord.bus.total_bytes() - sent == (m - 1) * 40


def test_update_straddling_a_dead_node_changes_nothing():
    """Regression: hosts were checked per span *after* earlier spans had
    committed, so a patch over a live block and one on a dead node rewrote
    the first block and its parities before raising."""
    bb = 64
    coord = make_system(seed=43, block_bytes=bb)
    data = payload(coord.code.k * bb, seed=43)  # exactly one stripe
    coord.write("f", data)
    coord.crash_node(coord.layout.stripes[0].placement[1])
    verdicts, sent = coord.scrub(), coord.bus.total_bytes()
    with pytest.raises(IOError):
        coord.update("f", bb // 2, b"\xaa" * bb)  # tail of block 0, head of block 1
    assert coord.read("f") == data  # degraded read: block 1 is decoded
    assert coord.bus.total_bytes() == sent
    assert coord.scrub() == verdicts
