"""Static validation of repair plans.

A plan is executed twice — by the fluid simulator (timing view) and by the
agents (byte view) — so inconsistencies between the two views are a
dangerous class of bug.  This module checks a plan *without running it*:

* task ids unique, dependencies resolvable and acyclic;
* every op reads buffers that an earlier op (or the initial stripe layout)
  produced **on the same node**;
* every declared output is actually produced at its declared node;
* the byte view and the timing view use the same set of directed links
  (volumes are compared by the test suite's conservation oracle).

Planning (:func:`repro.repair.planner.plan_stripe`) checks only the task
graph, all the timing view needs.  :func:`validate_plan` runs once per plan,
when its byte view is first built — before any op can run, never on a route
that only plans, and without the task graph again after ``plan_stripe``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.repair.context import Decisions, RepairContext
from repro.repair.plan import CombineOp, ConcatOp, RepairPlan, SliceOp, TransferOp
from repro.simnet.flows import DelayTask, validate_tasks


class PlanValidationError(ValueError):
    """A repair plan failed static validation."""


def _check_task_graph_acyclic(plan: RepairPlan) -> None:
    """Kahn's algorithm: retire every task whose dependencies are all
    retired; a task never retired waits, directly or not, on a cycle."""
    by_id = validate_tasks(plan.tasks)
    waiting = {tid: len(t.deps) for tid, t in by_id.items()}
    dependents = defaultdict(list)
    for t in plan.tasks:
        for dep in t.deps:
            dependents[dep].append(t.task_id)
    ready = [tid for tid, n in waiting.items() if not n]
    while ready:
        for tid in dependents.get(ready.pop(), ()):
            waiting[tid] -= 1
            if not waiting[tid]:
                ready.append(tid)
    stuck = next((tid for tid, n in waiting.items() if n), None)
    if stuck is None:
        return
    # every unretired task has an unretired dependency: follow them to a cycle
    path: dict[str, int] = {}
    while stuck not in path:
        path[stuck] = len(path)
        stuck = next(dep for dep in by_id[stuck].deps if waiting[dep])
    cycle = tuple(path)[path[stuck]:]
    raise PlanValidationError(f"dependency cycle through {stuck!r}: {cycle}")


def validate_plan(plan: RepairPlan, ctx: RepairContext | Decisions | None = None) -> None:
    """Raise :class:`PlanValidationError` on any structural inconsistency.

    With ``ctx`` (a context, read now, or the :class:`Decisions` the plan was
    built from) the data-flow check starts from the surviving blocks and the
    views' link sets are compared; without it only the task graph and
    intra-plan dataflow ordering are checked (initial buffers are inferred
    from SliceOp sources).  Only a byte view being built after ``plan_stripe``
    checked its task graph skips that part.
    """
    if not getattr(plan, "_graph_checked", False):
        _check_task_graph_acyclic(plan)

    if ctx is not None:
        if isinstance(ctx, RepairContext):
            ctx = ctx.decisions()
        available = ctx.initial_buffers()
    else:
        available = set()
        for op in plan.ops:
            if isinstance(op, SliceOp):
                available.add((op.node, op.src))

    for op in plan.ops:
        kind = type(op)
        if kind is TransferOp:
            node, reads, made = op.src_node, (op.name,), (op.dst_node, op.rename or op.name)
        elif kind is CombineOp:
            node, reads, made = op.node, op.srcs, (op.node, op.out)
        elif kind is SliceOp:
            node, reads, made = op.node, (op.src,), (op.node, op.out)
        elif kind is ConcatOp:
            node, reads, made = op.node, op.parts, (op.node, op.out)
        else:
            raise PlanValidationError(f"unknown op type {kind.__name__}")
        for name in reads:
            if (node, name) not in available:
                raise PlanValidationError(
                    f"op {op!r} reads buffer {name!r} not present on node {node}"
                )
        available.add(made)

    for fb, (node, name) in plan.outputs.items():
        if (node, name) not in available:
            raise PlanValidationError(
                f"declared output for block {fb} ({name!r} on node {node}) is never produced"
            )

    if ctx is not None:
        _check_views_consistent(plan)


def _check_views_consistent(plan: RepairPlan) -> None:
    """The timing view and the data view must use the same set of directed
    links.

    Only the sets are compared: a link both views use passes however many
    tasks and transfers cross it and whatever they carry.  An HMBR plan at
    p = 0 or 1 has no empty half to compare; a zero-size task (an empty
    fraction range an adaptive re-plan can build) still "times" its link,
    and the matching TransferOps move empty sub-blocks.
    """
    timing_links = {
        hop for t in plan.tasks if not isinstance(t, DelayTask) for hop in t.hops
    }
    data_links = {(op.src_node, op.dst_node) for op in plan.ops if type(op) is TransferOp}
    missing = data_links - timing_links
    extra = timing_links - data_links
    if missing:
        raise PlanValidationError(f"data view moves bytes over untimed links: {sorted(missing)}")
    if extra:
        raise PlanValidationError(f"timing view charges links the data never uses: {sorted(extra)}")
