"""Plan-validator tests, including fuzzing every planner against it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repair.centralized import plan_centralized
from repro.repair.hybrid import plan_hybrid
from repro.repair.independent import plan_independent
from repro.repair.multinode import plan_multi_node
from repro.repair.plan import CombineOp, RepairPlan, TransferOp
from repro.repair.rackaware import (
    plan_rack_aware_centralized,
    plan_rack_aware_hybrid,
    plan_tree_independent,
)
from repro.repair.validate import PlanValidationError, validate_plan
from repro.simnet.flows import DelayTask, Flow
from tests.conftest import make_repair_ctx


ALL_PLANNERS = [
    plan_centralized,
    plan_independent,
    plan_hybrid,
    plan_rack_aware_centralized,
    plan_tree_independent,
    plan_rack_aware_hybrid,
]


@pytest.mark.parametrize("planner", ALL_PLANNERS)
def test_every_planner_produces_valid_plans(planner):
    ctx = make_repair_ctx(k=6, m=3, f=2, rack_size=3, cross=30.0)
    validate_plan(planner(ctx), ctx)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_hybrid_plans_valid_under_random_bandwidths(k, m, f, seed):
    f = min(f, m)
    rng = np.random.default_rng(seed)
    n = k + m + f
    ups = rng.uniform(20, 200, size=n).tolist()
    downs = rng.uniform(20, 200, size=n).tolist()
    ctx = make_repair_ctx(k=k, m=m, f=f, uplinks=ups, downlinks=downs)
    validate_plan(plan_hybrid(ctx), ctx)


def test_multi_node_merged_plans_valid():
    from tests.test_repair_multinode import multi_node_setup

    cluster, code, layout, dead, repl = multi_node_setup(n_stripes=6)
    merged, jobs = plan_multi_node(cluster, code, layout, dead, repl, scheme="hmbr")
    for job in jobs:
        stripe = next(s for s in layout if s.stripe_id == job.stripe_id)
        from repro.repair.context import RepairContext

        ctx = RepairContext(
            cluster=cluster,
            code=code,
            stripe=stripe,
            failed_blocks=job.failed_blocks,
            new_nodes=job.new_nodes,
        )
        validate_plan(job.plan, ctx)


# ------------------------------------------------------------------ #
# the validator catches broken plans
# ------------------------------------------------------------------ #
def test_detects_missing_buffer():
    plan = RepairPlan(
        scheme="broken",
        tasks=[],
        ops=[CombineOp(0, "out", (1,), ("nonexistent",))],
        outputs={},
    )
    with pytest.raises(PlanValidationError):
        validate_plan(plan)


def test_detects_wrong_node_read():
    plan = RepairPlan(
        scheme="broken",
        tasks=[Flow("t", 0, 1, 1.0)],
        ops=[
            TransferOp(0, 1, "x"),  # x never created on node 0
        ],
        outputs={},
    )
    with pytest.raises(PlanValidationError):
        validate_plan(plan)


def test_detects_unproduced_output():
    plan = RepairPlan(scheme="broken", tasks=[], ops=[], outputs={0: (5, "missing")})
    with pytest.raises(PlanValidationError):
        validate_plan(plan)


def test_detects_dependency_cycle():
    plan = RepairPlan(
        scheme="broken",
        tasks=[
            Flow("a", 0, 1, 1.0, deps=("b",)),
            Flow("b", 1, 2, 1.0, deps=("a",)),
        ],
        ops=[],
        outputs={},
    )
    with pytest.raises(PlanValidationError):
        validate_plan(plan)


def test_a_deep_dependency_chain_validates():
    """3 000 delays, each waiting on the next and listed dependents-first:
    the acyclicity check is one linear pass, not a recursion per level."""
    n = 3000
    chain = [DelayTask(f"d{i}", 0.0, deps=(f"d{i + 1}",) if i + 1 < n else ()) for i in range(n)]
    validate_plan(RepairPlan(scheme="chain", tasks=chain, ops=[], outputs={}))


def test_a_cycle_is_named_by_a_task_on_it():
    """``x`` waits on the 3-cycle a -> b -> c -> a without being on it."""
    plan = RepairPlan(
        scheme="broken",
        tasks=[
            Flow("x", 0, 1, 1.0, deps=("c",)),
            Flow("a", 0, 1, 1.0, deps=("c",)),
            Flow("b", 1, 2, 1.0, deps=("a",)),
            Flow("c", 2, 0, 1.0, deps=("b",)),
        ],
        ops=[],
        outputs={},
    )
    with pytest.raises(PlanValidationError, match=r"cycle through '[abc]'"):
        validate_plan(plan)


def test_detects_view_mismatch():
    """Data view moving bytes over a link the timing view never charges."""
    ctx = make_repair_ctx(k=3, m=2, f=1)
    plan = plan_centralized(ctx)
    plan.ops.append(TransferOp(0, 1, plan.ops[0].out))  # rogue transfer
    with pytest.raises(PlanValidationError):
        validate_plan(plan, ctx)
