"""Repair plans: the common output of every planner.

A plan carries two synchronized views of the same repair:

* ``tasks`` — :mod:`repro.simnet` flow tasks, consumed by the fluid
  simulator to obtain the repair *transfer* time;
* ``ops`` — data-level GF operations in topological order, run by the
  storage agents (:func:`repro.system.agent.run_plan_ops`) to repair actual
  bytes (and measure the compute component of Table II).

Buffer naming: every op reads/writes named buffers in per-node workspaces.
Planners use hierarchical names like ``"h.ir/lo/b03"`` so views stay
debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class RepairPlan:
    """A fully-specified multi-block repair for one stripe."""

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

    def merged_with(self, other: "RepairPlan", prefix_self: str, prefix_other: str) -> "RepairPlan":
        """Combine two plans into one (used by multi-stripe scheduling)."""
        renamed_self = rename_plan(self, prefix_self)
        renamed_other = rename_plan(other, prefix_other)
        return RepairPlan(
            scheme=f"{self.scheme}+{other.scheme}",
            tasks=renamed_self.tasks + renamed_other.tasks,
            ops=renamed_self.ops + renamed_other.ops,
            outputs={**renamed_self.outputs, **renamed_other.outputs},
            meta={"left": renamed_self.meta, "right": renamed_other.meta},
        )


def rename_plan(plan: RepairPlan, prefix: str) -> RepairPlan:
    """Prefix every task id (buffer names are left alone: they are already
    namespaced per stripe by the planners)."""
    import dataclasses

    tasks = []
    for t in plan.tasks:
        tasks.append(
            dataclasses.replace(
                t,
                task_id=prefix + t.task_id,
                deps=tuple(prefix + d for d in t.deps),
            )
        )
    return RepairPlan(plan.scheme, tasks, list(plan.ops), dict(plan.outputs), dict(plan.meta))


def reweighted(plan: RepairPlan, weight: float) -> RepairPlan:
    """A copy of the plan whose flows run at the given fair-share weight.

    ``weight < 1`` throttles the repair against concurrent foreground
    traffic (weight 0.5 = half a client flow's share at any shared link);
    the data view is untouched.
    """
    import dataclasses

    if weight <= 0:
        raise ValueError("weight must be positive")
    tasks = []
    for t in plan.tasks:
        tasks.append(
            t if not hasattr(t, "weight") else dataclasses.replace(t, weight=weight)
        )
    return RepairPlan(
        plan.scheme, tasks, list(plan.ops), dict(plan.outputs),
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
    """Concatenate independently-runnable plans (e.g. one per stripe)."""
    tasks: list[Task] = []
    ops: list[Op] = []
    outputs: dict[int, tuple[int, str]] = {}
    metas = []
    for i, p in enumerate(plans):
        renamed = rename_plan(p, f"st{i}:")
        tasks.extend(renamed.tasks)
        ops.extend(renamed.ops)
        metas.append(p.meta)
    return RepairPlan(scheme, tasks, ops, outputs, {"stripes": metas})
