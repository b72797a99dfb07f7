"""Differential tests: degraded reads are bit-exact with healthy reads.

ISSUE 6 satellite 2.  For randomized (k, m, f, erasure pattern,
block size) in both GF(2^8) and GF(2^16), a read served through the
degraded path (first-k-survivors decode via the shared
:class:`~repro.repair.batch.PlanCache` / :class:`~repro.repair.batch.
BatchRepairEngine`) must return exactly the bytes a healthy read returned
before the failures — healthy, mid-fault-storm, and after repair.  Cases
fan out from the suite-wide master seed (:mod:`tests.seeds`).
"""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import block_name
from repro.faults.errors import StripeUnrecoverable
from repro.gf.field import GF
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from repro.workload import ServingPlane, WorkloadSpec
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout

CASE_SEEDS = seed_fanout(DEFAULT_MASTER_SEED, 6)


def _random_case(seed):
    """Random (k, m, f, block_bytes) with f <= m (per-stripe recoverable)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    m = int(rng.integers(2, 5))
    f = int(rng.integers(1, m + 1))
    block_bytes = int(rng.integers(1, 5)) * 512  # word-aligned, varied
    return rng, k, m, f, block_bytes


def _build_system(rng, k, m, block_bytes, n_spare=0):
    n_data = k + m + 4
    coord = Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(n_data)]),
        RSCode(k, m),
        block_bytes=block_bytes,
        block_size_mb=8.0,
        rng=int(rng.integers(0, 2**31)),
    )
    for j in range(n_spare):
        coord.add_spare(Node(n_data + j, 100.0, 100.0))
    return coord


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_degraded_read_bit_exact_gf8(seed):
    """Healthy baseline == degraded read, for a random erasure pattern."""
    rng, k, m, f, block_bytes = _random_case(seed)
    coord = _build_system(rng, k, m, block_bytes)
    spec = WorkloadSpec(
        n_objects=3, object_bytes=2 * k * block_bytes, seed=int(seed) % (2**31)
    )
    plane = ServingPlane(coord, spec)
    plane.provision()
    baselines = {
        spec.object_name(i): plane.read_object(spec.object_name(i))
        for i in range(spec.n_objects)
    }

    # kill f random distinct block-holders of object 0's first stripe:
    # placement holds <= 1 block of a stripe per node, so each stripe
    # loses at most f <= m blocks and stays recoverable.
    sid0 = coord.files[spec.object_name(0)][0][0]
    stripe = next(s for s in coord.layout if s.stripe_id == sid0)
    victims = [stripe.placement[b] for b in rng.choice(k + m, size=f, replace=False)]
    for v in victims:
        coord.crash_node(v)

    alive_gateway = sorted(coord.data_nodes())[0]
    for name, want in baselines.items():
        got = plane.read_object(name, gateway=alive_gateway)
        assert got == want, f"degraded read of {name} drifted (case seed {seed})"


def _gf16_system(k, m, words):
    """A GF(2^16) coordinator with ``words``-element blocks and 2 extra nodes."""
    field = GF(16)
    return Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(k + m + 2)]),
        RSCode(k, m, field),
        block_bytes=words,
        rng=0,
    )


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_degraded_read_bit_exact_gf16(seed):
    """Same contract at GF(2^16), provisioned through ``Coordinator.write``.

    ``write`` views two payload bytes as one field element and a read joins
    the elements' bytes, so the read equals the written bytes.
    """
    rng, k, m, f, _ = _random_case(seed)
    # a read takes only blocks of ``block_bytes`` words, which is word-aligned
    words = int(rng.integers(16, 65)) // 8 * 8
    coord = _gf16_system(k, m, words)
    payload = rng.integers(0, 256, size=2 * k * words, dtype=np.uint8).tobytes()
    (sid,) = coord.write("wide", payload).stripe_ids

    plane = ServingPlane(coord, WorkloadSpec(n_objects=1))
    want = plane.read_object("wide")
    assert want == payload

    placement = coord.layout[sid].placement
    victims = [placement[b] for b in rng.choice(k + m, size=f, replace=False)]
    for v in victims:
        coord.crash_node(v)
    gateway = sorted(coord.data_nodes())[0]
    assert plane.read_object("wide", gateway=gateway) == want


def test_gf16_write_update_read_round_trip():
    """A GF(2^16) write, an update that starts and ends mid-word, and a
    degraded read return the written bytes, through ``Coordinator.read``
    and ``ServingPlane.read_object``; parity stays consistent."""
    k, m = 4, 2
    coord = _gf16_system(k, m, 64)
    rng = np.random.default_rng(7)
    data = bytearray(rng.integers(0, 256, size=200, dtype=np.uint8).tobytes())
    coord.write("a", bytes(data))
    plane = ServingPlane(coord, WorkloadSpec(n_objects=1))
    assert coord.read("a") == plane.read_object("a") == bytes(data)

    patch = rng.integers(0, 256, size=40, dtype=np.uint8).tobytes()
    # bytes 101..140 start and end mid-word, across data blocks 0 and 1 (128 B each)
    assert coord.update("a", 101, patch)["blocks_patched"] == 2
    data[101:141] = patch
    assert coord.read("a") == bytes(data) and all(coord.scrub().values())
    coord.crash_node(coord.layout[coord.files["a"][0][0]].placement[0])
    gateway = sorted(coord.data_nodes())[0]
    assert coord.read("a") == bytes(data)
    assert plane.read_object("a", gateway=gateway) == bytes(data)


@pytest.mark.parametrize("seed", CASE_SEEDS[:3])
def test_degraded_read_bit_exact_mid_storm(seed):
    """Reads stay bit-exact while a repair storm churns the plan cache."""
    rng, k, m, f, block_bytes = _random_case(seed)
    coord = _build_system(rng, k, m, block_bytes, n_spare=f + 2)
    spec = WorkloadSpec(
        n_objects=4, object_bytes=k * block_bytes, seed=int(seed) % (2**31)
    )
    plane = ServingPlane(coord, spec)
    plane.provision()
    baselines = {
        spec.object_name(i): plane.read_object(spec.object_name(i))
        for i in range(spec.n_objects)
    }

    sid0 = coord.files[spec.object_name(0)][0][0]
    stripe = next(s for s in coord.layout if s.stripe_id == sid0)
    victims = [stripe.placement[b] for b in rng.choice(k + m, size=f, replace=False)]
    for v in victims:
        coord.crash_node(v)

    gw = sorted(coord.data_nodes())[0]
    for name, want in baselines.items():  # degraded, plans enter the cache
        assert plane.read_object(name, gateway=gw) == want
    # mid-storm: a helper becomes untrusted, its cached plans are evicted
    coord.plan_cache.invalidate_survivor(0)
    for name, want in baselines.items():  # re-decode through rebuilt plans
        assert plane.read_object(name, gateway=gw) == want
    # the storm lands: the repair rebuilds what the reads decoded around
    coord.repair(RepairRequest(scheme="hmbr"))
    for name, want in baselines.items():  # healthy again, still bit-exact
        assert plane.read_object(name, gateway=gw) == want


def test_unrecoverable_read_raises():
    rng = np.random.default_rng(7)
    coord = _build_system(rng, 3, 2, 512)
    spec = WorkloadSpec(n_objects=1, object_bytes=3 * 512)
    plane = ServingPlane(coord, spec)
    plane.provision()
    sid = coord.files[spec.object_name(0)][0][0]
    stripe = next(s for s in coord.layout if s.stripe_id == sid)
    for v in stripe.placement[:3]:  # m + 1 losses: < k survive
        coord.crash_node(v)
    gw = sorted(coord.data_nodes())[0]
    with pytest.raises(StripeUnrecoverable):
        plane.read_object(spec.object_name(0), gateway=gw)


@pytest.mark.parametrize("path", ["coordinator", "serving"])
@pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
@pytest.mark.parametrize("which", ["first", "last"])
def test_a_wrong_length_data_block_reads_as_lost(path, degraded, which):
    """A stored data block 16 bytes short is decoded around, never returned;
    once fewer than ``k`` full-length blocks remain the read fails typed."""
    k, m, block_bytes = 4, 2, 4096
    coord = _build_system(np.random.default_rng(5), k, m, block_bytes)
    spec = WorkloadSpec(n_objects=1, object_bytes=2 * k * block_bytes)
    plane = ServingPlane(coord, spec)
    plane.provision()
    name = spec.object_name(0)
    want = plane.read_object(name)
    sid = coord.files[name][0][0]
    placement = coord.layout[sid].placement
    bad = 0 if which == "first" else k - 1
    agent = coord.agents[placement[bad]]
    block = agent.read_block(block_name(sid, bad))
    agent.store_block(block_name(sid, bad), block[:-16].copy(), overwrite=True)
    if degraded:  # a dead data node beside the short block
        coord.crash_node(placement[1 if bad == 0 else 0])

    def read():
        if path == "coordinator":
            return coord.read(name)
        return plane.read_object(name, gateway=sorted(coord.data_nodes())[0])

    assert read() == want
    for node in placement[k : k + m - degraded]:  # k - 1 full blocks remain
        coord.crash_node(node)
    with pytest.raises(IOError if path == "coordinator" else StripeUnrecoverable):
        read()
