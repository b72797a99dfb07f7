"""Repair plans: the common output of every planner.

A planner freezes its decisions (survivors and their nodes, center, chain
paths, fraction range, failed blocks and their new nodes) and lowers them
twice:

* ``tasks`` — :mod:`repro.simnet` flow tasks, built with the plan: the
  fluid simulator's input, and all that planning alone (``plan_repair``,
  the scheduler's ETA, reliability metadata mode) reads.
* ``ops`` — data-level GF operations in topological order, run by the
  agents (:func:`repro.system.agent.run_plan_ops`).  Planners hand over a
  :class:`ByteLowering`: the first read of ``plan.ops``, by a route about to
  move bytes, builds the list, validates it once
  (:func:`repro.repair.validate.validate_plan`) and keeps it.

Buffer naming: every op reads/writes named buffers in per-node workspaces.
Planners use hierarchical names like ``"h.ir/lo/b03"`` so views stay
debuggable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.simnet.flows import Task


@dataclass
class SliceOp:
    """``workspace[node][out] = workspace[node][src][start:stop]`` (bytes)."""

    node: int
    out: str
    src: str
    start: int
    stop: int


@dataclass
class TransferOp:
    """Copy buffer ``name`` from ``src_node``'s workspace to ``dst_node``'s."""

    src_node: int
    dst_node: int
    name: str
    rename: str | None = None  # optional name at the destination


@dataclass
class CombineOp:
    """``workspace[node][out] = XOR_i coeffs[i] * workspace[node][srcs[i]]``."""

    node: int
    out: str
    coeffs: tuple[int, ...]
    srcs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.srcs):
            raise ValueError("coeffs/srcs length mismatch")
        if not self.srcs:
            raise ValueError("empty combine")


@dataclass
class ConcatOp:
    """``workspace[node][out] = concat(parts...)`` (sub-block join, Step 4)."""

    node: int
    out: str
    parts: tuple[str, ...]


Op = SliceOp | TransferOp | CombineOp | ConcatOp


@dataclass(frozen=True)
class ByteLowering:
    """A plan's byte view, not built yet: ``build()`` lowers the frozen
    decisions ``ctx`` (:class:`~repro.repair.context.Decisions`, or ``None``
    to infer the initial buffers from the slices) to the plan's ops, checking
    the task graph again unless planning did (``graph_checked``)."""

    build: Callable[[], list]
    ctx: Any = None
    graph_checked: bool = False


@dataclass
class RepairPlan:
    """A fully-specified multi-block repair for one stripe.  ``ops`` is
    given as a list or a :class:`ByteLowering`, and always reads as a list."""

    scheme: str
    tasks: list[Task]
    ops: list[Op]
    #: failed block index -> (new node id, buffer name of the repaired block)
    outputs: dict[int, tuple[int, str]]
    meta: dict = field(default_factory=dict)

    def total_transfer_mb(self) -> float:
        """Sum of bytes put on the wire (pipeline hops each count)."""
        total = 0.0
        for t in self.tasks:
            hops = getattr(t, "hops", ())
            total += getattr(t, "size_mb", 0.0) * len(hops)
        return total

    def task_ids(self) -> list[str]:
        return [t.task_id for t in self.tasks]


def _get_ops(plan: RepairPlan) -> list[Op]:
    lowering = plan._lowering
    if lowering is not None:  # first read: build, validate, keep
        from repro.repair import validate

        built = RepairPlan(plan.scheme, plan.tasks, lowering.build(), plan.outputs)
        built._graph_checked = lowering.graph_checked
        validate.validate_plan(built, lowering.ctx)
        plan._lowering, plan._ops = None, built.ops
    return plan._ops


def _set_ops(plan: RepairPlan, ops) -> None:
    plan._lowering, plan._ops = (ops, None) if isinstance(ops, ByteLowering) else (None, ops)


# installed after the decorator: ``ops`` stays a constructor field, read through it
RepairPlan.ops = property(_get_ops, _set_ops)


def rename_plan(plan: RepairPlan, prefix: str) -> RepairPlan:
    """Prefix every task id (buffer names are left alone: they are already
    namespaced per stripe by the planners).  An unbuilt byte view stays so."""
    tasks = [
        dataclasses.replace(
            t, task_id=prefix + t.task_id, deps=tuple(prefix + d for d in t.deps)
        )
        for t in plan.tasks
    ]
    ops = plan._lowering or list(plan._ops)
    return RepairPlan(plan.scheme, tasks, ops, dict(plan.outputs), dict(plan.meta))


def reweighted(plan: RepairPlan, weight: float) -> RepairPlan:
    """A copy of the plan whose flows run at the given fair-share weight.

    ``weight < 1`` throttles the repair against concurrent foreground
    traffic (weight 0.5 = half a client flow's share at any shared link);
    the byte view is untouched (and stays unbuilt if it was).
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    tasks = [
        t if not hasattr(t, "weight") else dataclasses.replace(t, weight=weight)
        for t in plan.tasks
    ]
    return RepairPlan(
        plan.scheme, tasks, plan._lowering or list(plan._ops), dict(plan.outputs),
        {**plan.meta, "weight": weight},
    )


def flow_signature(tasks) -> tuple:
    """Canonical, hashable description of a task DAG.

    One tuple per task — ``(task_id, kind, payload, hops, deps, weight,
    tag)`` — sorted by task id, where ``payload`` is ``size_mb`` for flows
    and ``duration_s`` for delay tasks.  Two task lists with equal
    signatures present the identical flow topology to the fluid simulator,
    so their makespans agree exactly; the reliability differential suite
    compares metadata-only plans against byte-materializing ones through
    this function.
    """
    rows = []
    for t in tasks:
        if hasattr(t, "hops"):
            payload = float(t.size_mb)
            hops = tuple(t.hops)
            weight = float(getattr(t, "weight", 1.0))
        else:  # DelayTask
            payload = float(t.duration_s)
            hops = ()
            weight = 1.0
        rows.append(
            (
                t.task_id,
                type(t).__name__,
                payload,
                hops,
                tuple(sorted(t.deps)),
                weight,
                getattr(t, "tag", ""),
            )
        )
    return tuple(sorted(rows))


def merge_plans(plans: list[RepairPlan], scheme: str) -> RepairPlan:
    """Concatenate independently-runnable plans (e.g. one per stripe).

    Task ids gain a per-plan prefix; the byte view concatenates the plans'
    own, each validated against its stripe when first read.  ``outputs``
    stays empty: failed-block indices collide across stripes (block 3 of two
    stripes), so the parts keep theirs.
    """
    renamed = [rename_plan(p, f"st{i}:") for i, p in enumerate(plans)]
    return RepairPlan(
        scheme,
        [t for p in renamed for t in p.tasks],
        ByteLowering(lambda: [op for p in renamed for op in p.ops]),
        {},
        {"stripes": [p.meta for p in plans]},
    )
