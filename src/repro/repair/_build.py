"""Shared plan-building blocks for the CR / IR / HMBR planners.

Each builder takes the stripe's frozen
:class:`~repro.repair.context.Decisions` from its planner, which derives
them once per plan, freezes its own (center, chain paths or tree) and
returns ``(tasks, lower, outputs)``: the timing lowering over a
*fraction range* ``[frac_start, frac_stop)`` of every block (the whole block
for pure CR/IR; the upper/lower sub-block for HMBR), the byte lowering
``lower(lo, hi)`` — the ops over ``[lo, hi)``, built from the frozen
decisions only when called — and the outputs.  Fractions are resolved to
word-aligned byte offsets by the executor, so plans are independent of the
test-time buffer length.
"""

from __future__ import annotations

import math

from repro.ec.stripe import block_name
from repro.repair.context import Decisions, RepairContext
from repro.repair.plan import (
    ByteLowering, CombineOp, ConcatOp, Op, RepairPlan, SliceOp, TransferOp,
)
from repro.simnet.flows import Flow, PipelineFlow, Task


def refraction(part, frac_start: float, frac_stop: float):
    """A CR, IR or rack-aware ``(tasks, lower, outputs)`` built over the
    whole block, its tasks cut to ``[frac_start, frac_stop)``: ``==`` to a
    build of that range, as each builder sizes tasks ``frac * B`` and
    ``(1.0 * B) * p == p * B``.  The byte lowering takes its range when
    called, and outputs carry no fraction: both are shared."""
    tasks, lower, outputs = part
    frac = frac_stop - frac_start
    if frac < 0:
        raise ValueError("empty fraction range")
    tasks = [type(t)(**{**vars(t), "size_mb": t.size_mb * frac}) for t in tasks]
    return tasks, lower, outputs


def _fraction_size(ctx: RepairContext, frac_start: float, frac_stop: float) -> float:
    frac = frac_stop - frac_start
    if frac < 0:
        raise ValueError("empty fraction range")
    return frac * ctx.block_size_mb


def _slice_name(prefix: str, block: int) -> str:
    return f"{prefix}/in/b{block:02d}"


def repaired_name(prefix: str, block: int) -> str:
    return f"{prefix}/out/b{block:02d}"


def hybrid_plan(scheme: str, prefix: str, cr_part, ir_part, p0: float, d, meta) -> RepairPlan:
    """The plan splitting every block at ``p0`` between two whole-block
    builds: CR below, IR above, joined on each new node (Step 4 of §IV-A).
    At p0 = 0 or 1 it is the one non-empty build (pure IR or CR, §III):
    its tasks, byte lowering and outputs, with no empty half and no concat."""
    if p0 in (0.0, 1.0):
        tasks, lower, outputs = cr_part if p0 else ir_part
        ops = ByteLowering(lambda: lower(0.0, 1.0), d)
    else:
        cr_tasks, cr_lower, upper = refraction(cr_part, 0.0, p0)
        ir_tasks, ir_lower, below = refraction(ir_part, p0, 1.0)
        joins = {}
        for fb, (node, up) in upper.items():
            if below[fb][0] != node:
                raise AssertionError(f"the two sub-plans disagree on block {fb}'s new node")
            joins[fb] = (node, repaired_name(prefix, fb), (up, below[fb][1]))
        tasks = cr_tasks + ir_tasks
        outputs = {fb: (node, out) for fb, (node, out, _) in joins.items()}
        ops = ByteLowering(
            lambda: cr_lower(0.0, p0) + ir_lower(p0, 1.0) + [ConcatOp(*j) for j in joins.values()],
            d,
        )
    return RepairPlan(scheme, list(tasks), ops, outputs, meta)


def add_centralized(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    center: int,
    d: Decisions,
) -> tuple:
    """Star repair into ``center``; redistribute the other f-1 blocks.

    Flow sizes are scaled by the fraction width.  HMBR at p0 = 0 or 1 never
    builds the empty half (:func:`hybrid_plan`); an empty range still emits
    the op skeleton over empty buffers, which an adaptive re-plan can ask for.
    """
    size = _fraction_size(ctx, frac_start, frac_stop)
    nodes = [d.placement[b] for b in d.survivors]
    fetch_ids = tuple(f"{prefix}:fetch:b{b:02d}" for b in d.survivors)
    tasks: list[Task] = [
        Flow(tid, src=node, dst=center, size_mb=size, tag=f"{prefix}:fetch")
        for tid, node in zip(fetch_ids, nodes)
    ]
    outputs: dict[int, tuple[int, str]] = {}
    for fb, target in zip(d.failed_blocks, d.new_nodes):
        if target != center:
            tasks.append(Flow(
                f"{prefix}:dist:b{fb:02d}", src=center, dst=target, size_mb=size,
                deps=fetch_ids, tag=f"{prefix}:dist",
            ))
        outputs[fb] = (target, repaired_name(prefix, fb))

    def lower(lo: float, hi: float) -> list[Op]:
        """The byte lowering: the ops over ``[lo, hi)`` of every block."""
        ops: list[Op] = []
        sliced = tuple(_slice_name(prefix, b) for b in d.survivors)
        for b, node, sname in zip(d.survivors, nodes, sliced):
            ops.append(SliceOp(node, sname, block_name(d.stripe_id, b), lo, hi))
            ops.append(TransferOp(node, center, sname))
        for row, fb, target in zip(d.rows(), d.failed_blocks, d.new_nodes):
            out = repaired_name(prefix, fb)
            ops.append(CombineOp(center, out, tuple(row), sliced))
            if target != center:
                ops.append(TransferOp(center, target, out))
        return ops

    return tasks, lower, outputs


def mlf_degree(k: int, degree: int | None) -> int:
    """MLF's tree degree over ``k`` survivors: ``degree``, or by default
    ~sqrt(k), which balances tree depth against root fan-in."""
    return max(2, round(math.sqrt(k))) if degree is None else degree


def mlf_children(k: int, degree: int) -> dict[int, list[int]]:
    """Heap-layout children map of a complete ``degree``-ary tree on 0..k-1."""
    if degree < 2:
        raise ValueError("tree degree must be >= 2")
    return {
        p: [c for c in range(degree * p + 1, degree * p + degree + 1) if c < k]
        for p in range(k)
    }


def add_multilevel(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    degree: int | None,
    order: str,
    d: Decisions,
) -> tuple:
    """Multi-level forwarding repair (MLF): one shared aggregation tree.

    The k survivors form a complete ``degree``-ary tree (heap layout).  Each
    node scales its own sub-block by its repair coefficients, XOR-merges the
    partials arriving from its children, and forwards the f running partials
    to its parent in one burst; the root ends up holding all f decoded
    sub-blocks and sends each to its new node.  Compared to CR no single
    downlink takes k transfers, and compared to IR no survivor's position in
    a long chain gates the finish — levels aggregate in parallel, which is
    what the rapidly-changing-network paper exploits.

    ``order`` places survivors into tree positions: ``"uplink-desc"`` puts
    fast uploaders near the root (they carry aggregated traffic),
    ``"index"`` keeps block order.  ``degree=None`` is :func:`mlf_degree`'s.
    """
    size = _fraction_size(ctx, frac_start, frac_stop)
    k = len(d.survivors)
    degree = mlf_degree(k, degree)
    if order == "index":
        blocks = list(d.survivors)
    elif order == "uplink-desc":
        blocks = sorted(
            d.survivors, key=lambda b: (-ctx.cluster[d.placement[b]].uplink, b)
        )
    else:
        raise ValueError(f"unknown mlf order {order!r}")
    node_of_pos = [d.placement[b] for b in blocks]
    children = mlf_children(k, degree)

    def edge_id(pos: int) -> str:
        return f"{prefix}:agg:v{pos:02d}"

    def partial_name(fb: int, pos: int) -> str:
        return f"{prefix}/p{fb:02d}/v{pos:02d}"

    # bottom-up so every child partial exists before its parent combines
    tasks: list[Task] = [
        Flow(
            edge_id(pos), src=node_of_pos[pos], dst=node_of_pos[(pos - 1) // degree],
            size_mb=ctx.f * size, deps=tuple(edge_id(c) for c in children[pos]),
            tag=f"{prefix}:agg",
        )
        for pos in reversed(range(1, k))
    ]
    # the root's partials are the decoded sub-blocks
    root_edges = tuple(edge_id(c) for c in children[0])
    outputs: dict[int, tuple[int, str]] = {}
    for fb, target in zip(d.failed_blocks, d.new_nodes):
        tasks.append(Flow(
            f"{prefix}:dist:b{fb:02d}", src=node_of_pos[0], dst=target, size_mb=size,
            deps=root_edges, tag=f"{prefix}:dist",
        ))
        outputs[fb] = (target, repaired_name(prefix, fb))

    def lower(lo: float, hi: float) -> list[Op]:
        """The byte lowering: the ops over ``[lo, hi)`` of every block."""
        ops: list[Op] = []
        rows = d.rows()
        col_of_block = {b: i for i, b in enumerate(d.survivors)}
        for pos in reversed(range(k)):
            node, b, kids = node_of_pos[pos], blocks[pos], children[pos]
            sname = _slice_name(prefix, b)
            ops.append(SliceOp(node, sname, block_name(d.stripe_id, b), lo, hi))
            col = col_of_block[b]
            for row, fb in zip(rows, d.failed_blocks):
                ops.append(CombineOp(
                    node, partial_name(fb, pos), (row[col],) + (1,) * len(kids),
                    (sname,) + tuple(partial_name(fb, c) for c in kids),
                ))
            if pos > 0:
                parent_node = node_of_pos[(pos - 1) // degree]
                ops.extend(
                    TransferOp(node, parent_node, partial_name(fb, pos))
                    for fb in d.failed_blocks
                )
            else:
                ops.extend(
                    TransferOp(node, target, partial_name(fb, 0), rename=repaired_name(prefix, fb))
                    for fb, target in zip(d.failed_blocks, d.new_nodes)
                )
        return ops

    return tasks, lower, outputs


def add_independent(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    paths: dict[int, list[int]],
    d: Decisions,
) -> tuple:
    """Pipelined chain repair, one chain per failed block.

    ``paths[fb]`` is the node path: the chosen survivors (in some order)
    followed by the failed block's new node.  Every hop carries the partially
    accumulated sub-block; the fluid simulator models the chain as a single
    pipeline flow at the min-hop rate.
    """
    size = _fraction_size(ctx, frac_start, frac_stop)
    chains = []
    for fb, target in zip(d.failed_blocks, d.new_nodes):
        path = tuple(paths[fb])
        if len(path) != len(d.survivors) + 1:
            raise ValueError(
                f"chain for block {fb} has {len(path)} nodes, expected k+1={len(d.survivors) + 1}"
            )
        if path[-1] != target:
            raise ValueError(f"chain for block {fb} ends at {path[-1]}, not its new node")
        chains.append((fb, path))
    tasks: list[Task] = [
        PipelineFlow(f"{prefix}:pipe:b{fb:02d}", path=path, size_mb=size, tag=f"{prefix}:pipe")
        for fb, path in chains
    ]
    outputs = {fb: (path[-1], repaired_name(prefix, fb)) for fb, path in chains}

    def lower(lo: float, hi: float) -> list[Op]:
        """The byte lowering: the ops over ``[lo, hi)`` of every block."""
        # node -> (block, its column of the repair matrix, its sub-block's name)
        block_of = {
            d.placement[b]: (b, i, _slice_name(prefix, b)) for i, b in enumerate(d.survivors)
        }
        ops: list[Op] = []
        sliced: set[int] = set()  # nodes whose sub-block is already cut
        for coeffs, (fb, path) in zip(d.rows(), chains):
            prev_partial: str | None = None
            partial_head = f"{prefix}/p{fb:02d}/h"
            for hop, (node, nxt) in enumerate(zip(path, path[1:])):
                b, col, sname = block_of[node]
                if node not in sliced:
                    ops.append(SliceOp(node, sname, block_name(d.stripe_id, b), lo, hi))
                    sliced.add(node)
                partial = f"{partial_head}{hop:02d}"
                if prev_partial is None:
                    ops.append(CombineOp(node, partial, (coeffs[col],), (sname,)))
                else:
                    ops.append(CombineOp(node, partial, (coeffs[col], 1), (sname, prev_partial)))
                ops.append(TransferOp(node, nxt, partial))
                prev_partial = partial
            # the buffer arriving at the new node *is* the repaired sub-block
            ops.append(CombineOp(path[-1], repaired_name(prefix, fb), (1,), (prev_partial,)))
        return ops

    return tasks, lower, outputs
