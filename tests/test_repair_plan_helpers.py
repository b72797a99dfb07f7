"""RepairPlan helper tests: renaming, merging, traffic accounting."""

import pytest

from repro.repair.plan import RepairPlan, merge_plans, rename_plan
from repro.simnet.flows import DelayTask, Flow, PipelineFlow


def small_plan(prefix="p"):
    tasks = [
        Flow(f"{prefix}:a", 0, 1, 10.0),
        Flow(f"{prefix}:b", 1, 2, 5.0, deps=(f"{prefix}:a",)),
        PipelineFlow(f"{prefix}:c", (0, 1, 2), 4.0),
    ]
    return RepairPlan(scheme="T", tasks=tasks, ops=[], outputs={0: (2, "out")}, meta={"x": 1})


def test_total_transfer_counts_pipeline_hops():
    plan = small_plan()
    # 10 + 5 + 4 * 2 hops
    assert plan.total_transfer_mb() == pytest.approx(23.0)
    assert plan.task_ids() == ["p:a", "p:b", "p:c"]


def test_delay_tasks_carry_no_traffic():
    plan = RepairPlan("T", [DelayTask("d", 1.0)], [], {})
    assert plan.total_transfer_mb() == 0.0


def test_rename_plan_rewrites_ids_and_deps():
    renamed = rename_plan(small_plan(), "x:")
    ids = renamed.task_ids()
    assert ids == ["x:p:a", "x:p:b", "x:p:c"]
    b = next(t for t in renamed.tasks if t.task_id == "x:p:b")
    assert b.deps == ("x:p:a",)
    # original untouched
    assert small_plan().tasks[1].deps == ("p:a",)


def test_merge_plans_unique_ids():
    merged = merge_plans([small_plan("p"), small_plan("p")], scheme="M")
    ids = merged.task_ids()
    assert len(ids) == len(set(ids)) == 6
    assert merged.scheme == "M"
    assert len(merged.meta["stripes"]) == 2


def test_merged_plans_simulate_together():
    from repro.cluster.topology import Cluster

    cluster = Cluster.homogeneous(3, 100.0)
    from repro.simnet.fluid import FluidSimulator

    merged = merge_plans([small_plan("p"), small_plan("q")], scheme="M")
    res = FluidSimulator(cluster).run(merged.tasks)
    assert len(res.finish_times) == 6


def test_merged_with_combines_two_plans():
    """Two plans merge through ``merge_plans``.  Both repair block 0, as two
    stripes' plans may: the merged plan keeps no outputs rather than one."""
    left, right = small_plan("l"), small_plan("r")
    combo = merge_plans([left, right], scheme="T+T")
    assert len(combo.tasks) == 6
    assert combo.scheme == "T+T"
    assert [t.task_id for t in combo.tasks[:3]] == ["st0:l:a", "st0:l:b", "st0:l:c"]
    assert any(t.task_id.startswith("st1:r:") for t in combo.tasks)
    assert combo.outputs == {} and combo.meta == {"stripes": [{"x": 1}, {"x": 1}]}
    assert combo.ops == []
