"""Ultra-wide stripes: beyond GF(2^8)'s 256-element limit, and the VAST code.

The paper cites VAST's (150, 4) wide stripe — which still fits GF(2^8) — but
a library claiming wide-stripe support must also handle k + m > 256, which
forces GF(2^16).  These are full end-to-end repairs at both field widths,
plus a whole GF(2^16) system: a ``Coordinator`` takes its field from its
code, and a payload byte is one stored byte on both fields.
"""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe
from repro.gf.field import GF
from repro.repair.context import RepairContext
from repro.system.executor import PlanExecutor, Workspace
from repro.repair.hybrid import plan_hybrid
from repro.simnet.fluid import FluidSimulator
from repro.system.request import RepairRequest
from tests.test_system_coordinator import make_system


def build_ctx(k, m, f, field):
    n = k + m + f
    cluster = Cluster([Node(i, 100.0, 100.0) for i in range(n)])
    code = RSCode(k, m, field)
    stripe = Stripe(0, k, m, list(range(k + m)))
    failed = list(range(f))
    cluster.fail_nodes(failed)
    return RepairContext(
        cluster=cluster,
        code=code,
        stripe=stripe,
        failed_blocks=failed,
        new_nodes=list(range(k + m, n)),
        block_size_mb=64.0,
    )


def run_repair(ctx, length=256, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, ctx.code.field.size, size=(ctx.code.k, length)).astype(
        ctx.code.field.dtype
    )
    full = ctx.code.encode_stripe(data)
    ws = Workspace(field_=ctx.code.field)
    ws.load_stripe(ctx.stripe, full)
    for b in ctx.failed_blocks:
        ws.drop_node(ctx.stripe.placement[b])
    plan = plan_hybrid(ctx)
    PlanExecutor(ws).execute(plan, verify_against={b: full[b] for b in ctx.failed_blocks})
    return plan


def test_vast_150_4_wide_stripe_gf8():
    """VAST's (150, 4) code repairs end-to-end in GF(2^8)."""
    ctx = build_ctx(150, 4, 2, GF(8))
    plan = run_repair(ctx, length=64)
    t = FluidSimulator(ctx.cluster).run(plan.tasks).makespan
    assert t > 0


def test_gf8_limit_enforced():
    with pytest.raises(ValueError):
        RSCode(280, 8, GF(8))


def test_ultra_wide_stripe_gf16():
    """(280, 8): impossible in GF(2^8), repairs end-to-end in GF(2^16)."""
    ctx = build_ctx(280, 8, 2, GF(16))
    plan = run_repair(ctx, length=32)
    assert plan.meta["p0"] >= 0.0


def test_gf16_hybrid_multiblock_f4():
    ctx = build_ctx(60, 8, 4, GF(16))
    run_repair(ctx, length=64, seed=3)


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr"])
@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 2)])
def test_a_default_coordinator_repairs_a_gf16_code(k, m, scheme):
    """The system's field is its code's: agents, spares, parity deltas and
    verify all run GF(2^16) on the ``Coordinator`` defaults."""
    coord = make_system(k=k, m=m, block_bytes=64, field=GF(16))
    data = np.random.default_rng(k).integers(0, 256, 1001, dtype=np.uint8).tobytes()
    coord.write("f", data)
    for node in coord.layout[0].placement[:m]:
        coord.crash_node(node)
    res = coord.repair(RepairRequest(scheme=scheme))
    assert res.ok and res.blocks_recovered >= m
    assert coord.read("f") == data and all(coord.scrub().values())


@pytest.mark.parametrize("nbytes", [1, 3, 255, 257, 511, 513, 1025])
def test_gf16_write_read_round_trips_at_odd_lengths(nbytes):
    """Two payload bytes per element; the tail stripe's padding absorbs an
    odd length, and the system stores one byte per payload byte."""
    coord = make_system(k=4, m=2, block_bytes=64, field=GF(16))
    data = np.random.default_rng(nbytes).integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    receipt = coord.write("f", data)
    stripe_payload = 4 * 64 * 2
    assert receipt.padded_bytes == -(-nbytes // stripe_payload) * stripe_payload
    assert coord.stats()["bytes_stored"] == receipt.padded_bytes * 6 // 4
    assert coord.read("f") == data
    coord.crash_node(coord.layout[receipt.stripe_ids[-1]].placement[0])
    assert coord.read("f") == data  # degraded: the tail stripe decodes block 0
