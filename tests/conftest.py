"""Shared fixtures: the paper's Figure 2 scenario and generic repair setups.

Seed fan-out for randomized suites lives in :mod:`tests.seeds` (one master
seed, deterministic derivation); it is re-exported here so every tier —
including ``tests/chaos`` — draws from the same helper instead of repeating
the ``SeedSequence`` recipe.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe
from repro.repair.context import RepairContext
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout  # noqa: F401  (re-export)


@pytest.fixture(scope="session", autouse=True)
def _probe_solver_kernel():
    """Build and bind the fluid solver kernel once, up front: its first use
    must not fall inside a test that hides the compiler or moves the cache."""
    from repro.simnet.fluid import FluidSimulator

    FluidSimulator.allocator_info()


@contextmanager
def unbound_kernel():
    """Run the body on the NumPy allocator: the fluid solver kernel's handle
    is unbound — the state of a host without a C compiler — then restored.
    No option selects the allocator, so this is the only way to force it."""
    from repro.simnet import fluid

    fluid._KERNEL.load()  # probe first, or the next ``rates`` call would bind it
    lib, fluid._KERNEL.lib = fluid._KERNEL.lib, None
    try:
        yield
    finally:
        fluid._KERNEL.lib = lib


def fresh_native_tier(monkeypatch, request):
    """Swap an unprobed ``NativeBackend`` into the GF kernel's tier tuple
    (restored by ``monkeypatch``), with the selection memo emptied now and
    again when the test ends; returns the fresh tier."""
    from repro.gf.backend import NativeBackend, base

    fresh = NativeBackend()
    tiers = tuple(fresh if isinstance(t, NativeBackend) else t for t in base._TIERS)
    monkeypatch.setattr(base, "_TIERS", tiers)
    base._SELECTED.clear()
    request.addfinalizer(base._SELECTED.clear)
    return fresh


@pytest.fixture
def numpy_allocator():
    """This test's fluid runs use the NumPy filling loop."""
    with unbound_kernel():
        yield


@pytest.fixture
def fig2():
    """The paper's Figure 2 scenario.

    (3, 2) RS code; D1,D2,D3,P1,P2 on N1..N5; N1 and N2 fail so D1 and P1
    are lost; new nodes N1' (id 5) and N2' (id 6) with ample bandwidth.
    Node bandwidths chosen so the paper's worked numbers come out: the new
    node downlink is 1000 MB/s (t_CR stage 1 = 3*64/1000 = 0.192 s) and the
    slowest survivor uplink is 640 MB/s (t_IR = 2*64/640 = 0.20 s).
    """
    nodes = [
        Node(0, 800, 1000),  # N1 (dies)
        Node(1, 800, 1000),  # N2 (dies)
        Node(2, 800, 1000),  # N3 -> D2
        Node(3, 640, 1000),  # N4 -> D3 (slowest uplink)
        Node(4, 900, 1000),  # N5 -> P1
        Node(5, 1000, 1000),  # N1'
        Node(6, 1000, 1000),  # N2'
    ]
    cluster = Cluster(nodes)
    code = RSCode(3, 2)
    # D1@N1, D2@N3, D3@N4, P1@N5, P2@N2 -> failing N1,N2 loses D1 (block 0)
    # and P2 (block 4), matching the paper exactly.
    stripe = Stripe(0, 3, 2, [0, 2, 3, 4, 1])
    cluster.fail_nodes([0, 1])
    ctx = RepairContext(
        cluster=cluster,
        code=code,
        stripe=stripe,
        failed_blocks=[0, 4],
        new_nodes=[5, 6],
        block_size_mb=64.0,
    )
    return ctx


@pytest.fixture
def stripe_data():
    """Callable producing (full stripe array, loaded workspace) for a ctx."""
    from repro.system.executor import Workspace

    def make(ctx, length=512, seed=0):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(ctx.code.k, length), dtype=np.uint8)
        full = ctx.code.encode_stripe(data)
        ws = Workspace()
        ws.load_stripe(ctx.stripe, full)
        for b in ctx.failed_blocks:
            ws.drop_node(ctx.stripe.placement[b])
        return full, ws

    return make


def make_repair_ctx(
    k=4,
    m=2,
    f=2,
    uplinks=None,
    downlinks=None,
    block_size_mb=16.0,
    rack_size=None,
    cross=None,
    survivor_policy="first",
):
    """Generic helper: identity placement, last f stripe nodes failed."""
    n = k + m + f
    ups = uplinks if uplinks is not None else [100.0] * n
    downs = downlinks if downlinks is not None else ups
    nodes = []
    for i in range(n):
        rack = i // rack_size if rack_size else 0
        nodes.append(
            Node(
                i,
                ups[i],
                downs[i],
                rack=rack,
                cross_uplink=cross,
                cross_downlink=cross,
            )
        )
    cluster = Cluster(nodes)
    code = RSCode(k, m)
    stripe = Stripe(0, k, m, list(range(k + m)))
    failed = list(range(k + m - f, k + m))
    cluster.fail_nodes(failed)
    return RepairContext(
        cluster=cluster,
        code=code,
        stripe=stripe,
        failed_blocks=failed,
        new_nodes=list(range(k + m, n)),
        block_size_mb=block_size_mb,
        survivor_policy=survivor_policy,
    )
