"""Ultra-wide stripes: beyond GF(2^8)'s 256-element limit, and the VAST code.

The paper cites VAST's (150, 4) wide stripe — which still fits GF(2^8) — but
a library claiming wide-stripe support must also handle k + m > 256, which
forces GF(2^16).  These are full end-to-end repairs at both field widths.
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
