"""Executor and workspace semantics tests."""

import numpy as np
import pytest

from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe
from repro.repair.hybrid import plan_hybrid
from repro.repair.plan import CombineOp, ConcatOp, RepairPlan, SliceOp, TransferOp
from repro.repair.rackaware import plan_rack_aware_hybrid
from repro.system.executor import PlanExecutor, Workspace
from tests.conftest import make_repair_ctx


def empty_plan(ops, outputs=None):
    return RepairPlan(scheme="test", tasks=[], ops=ops, outputs=outputs or {})


def test_workspace_put_get_alignment():
    ws = Workspace()
    ws.put(1, "a", np.zeros(16, dtype=np.uint8))
    assert ws.get(1, "a").size == 16
    with pytest.raises(ValueError):
        ws.put(1, "bad", np.zeros(13, dtype=np.uint8))
    with pytest.raises(KeyError):
        ws.get(2, "a")


def test_workspace_load_stripe_and_drop_node():
    code = RSCode(2, 1)
    stripe = Stripe(0, 2, 1, [5, 6, 7])
    data = np.arange(32, dtype=np.uint8).reshape(2, 16)
    full = code.encode_stripe(data)
    ws = Workspace()
    ws.load_stripe(stripe, full)
    assert ws.get(6, "s0000/b01") is not None
    ws.drop_node(6)
    with pytest.raises(KeyError):
        ws.get(6, "s0000/b01")
    with pytest.raises(ValueError):
        ws.load_stripe(stripe, full[:2])


def test_slice_transfer_combine_concat_pipeline():
    ws = Workspace()
    rng = np.random.default_rng(0)
    buf = rng.integers(0, 256, size=64, dtype=np.uint8)
    ws.put(0, "src", buf)
    ops = [
        SliceOp(0, "upper", "src", 0.0, 0.5),
        SliceOp(0, "lower", "src", 0.5, 1.0),
        TransferOp(0, 1, "upper"),
        TransferOp(0, 1, "lower", rename="low2"),
        CombineOp(1, "scaled", (3,), ("upper",)),
        ConcatOp(1, "joined", ("upper", "low2")),
    ]
    report = PlanExecutor(ws).execute(empty_plan(ops))
    assert np.array_equal(ws.get(1, "joined"), buf)
    from repro.gf.field import gf8

    assert np.array_equal(ws.get(1, "scaled"), gf8.scale(3, buf[:32]))
    assert report.op_count == 6
    assert report.transfer_mb_equiv == pytest.approx(64 / 2**20)
    assert report.gf_bytes_processed == 32
    assert report.gf_bytes_by_node == {1: 32}


def test_transfer_copies_not_aliases():
    """A received buffer is a read-only view: the receiver cannot write
    through it into the sender's bytes."""
    ws = Workspace()
    ws.put(0, "a", np.zeros(16, dtype=np.uint8))
    PlanExecutor(ws).execute(empty_plan([TransferOp(0, 1, "a")]))
    with pytest.raises(ValueError, match="read-only"):
        ws.get(1, "a")[0] = 99
    assert ws.get(0, "a")[0] == 0


def test_verification_failure_raises():
    ws = Workspace()
    ws.put(0, "a", np.zeros(16, dtype=np.uint8))
    plan = empty_plan(
        [CombineOp(0, "out", (1,), ("a",))], outputs={3: (0, "out")}
    )
    with pytest.raises(AssertionError):
        PlanExecutor(ws).execute(plan, verify_against={3: np.ones(16, dtype=np.uint8)})


def test_verification_missing_output_raises():
    ws = Workspace()
    plan = empty_plan([], outputs={})
    with pytest.raises(AssertionError):
        PlanExecutor(ws).execute(plan, verify_against={0: np.zeros(8, dtype=np.uint8)})


def test_combine_validation():
    with pytest.raises(ValueError):
        CombineOp(0, "out", (1, 2), ("a",))
    with pytest.raises(ValueError):
        CombineOp(0, "out", (), ())


def test_compute_time_accounted_per_node():
    ws = Workspace()
    rng = np.random.default_rng(1)
    ws.put(0, "x", rng.integers(0, 256, size=2**16, dtype=np.uint8))
    ws.put(1, "y", rng.integers(0, 256, size=2**16, dtype=np.uint8))
    ops = [
        CombineOp(0, "o0", (7,), ("x",)),
        CombineOp(1, "o1", (9,), ("y",)),
    ]
    report = PlanExecutor(ws).execute(empty_plan(ops))
    assert set(report.compute_seconds) == {0, 1}
    assert report.total_compute_seconds >= report.critical_compute_seconds > 0


@pytest.mark.parametrize("planner", [plan_hybrid, plan_rack_aware_hybrid])
def test_executed_plan_rebuilds_the_original_blocks(planner, stripe_data):
    """The harness runs on the agents' op path: a planner's plan must come
    out as the original bytes, and the report must agree with the bus."""
    ctx = make_repair_ctx(k=6, m=3, f=2, rack_size=3, cross=30.0)
    full, ws = stripe_data(ctx, length=256, seed=1)
    report = PlanExecutor(ws).execute(planner(ctx))
    assert sorted(report.outputs) == sorted(ctx.failed_blocks)
    for fb, rebuilt in report.outputs.items():
        assert np.array_equal(rebuilt, full[fb])
    assert report.transfer_mb_equiv * 2**20 == ws.bus.total_bytes() > 0
    assert sum(report.per_node_mb_sent.values()) == report.transfer_mb_equiv


def test_execute_meters_only_its_own_run():
    """A second plan on the same workspace reports its own work, and the
    hooks come off afterwards."""
    ws = Workspace()
    ws.put(0, "a", np.arange(16, dtype=np.uint8))
    plan = empty_plan([TransferOp(0, 1, "a"), CombineOp(1, "out", (2,), ("a",))])
    first = PlanExecutor(ws).execute(plan)
    second = PlanExecutor(ws).execute(plan)
    assert first.transfer_mb_equiv == second.transfer_mb_equiv == 16 / 2**20
    assert first.gf_bytes_by_node == second.gf_bytes_by_node == {1: 16}
    assert ws.bus.obs_hook is None
    assert all(agent.obs_hook is None for agent in ws.agents.values())
