"""Shared plan-building blocks for the CR / IR / HMBR planners.

Each builder emits both views of a sub-plan restricted to a *fraction range*
``[frac_start, frac_stop)`` of every block (the whole block for pure CR/IR;
the upper/lower sub-block for HMBR).  Fractions are resolved to word-aligned
byte offsets by the executor, so plans are independent of the test-time
buffer length.
"""

from __future__ import annotations

import numpy as np

from repro.ec.stripe import block_name
from repro.repair.context import RepairContext
from repro.repair.plan import CombineOp, Op, SliceOp, TransferOp
from repro.simnet.flows import Flow, PipelineFlow, Task


def refraction(part, frac_start: float, frac_stop: float):
    """A CR, IR or rack-aware ``(tasks, ops, outputs)`` built over the whole
    block, cut to ``[frac_start, frac_stop)``: ``==`` to a build of that range,
    as each builder sizes tasks ``frac * B`` and ``(1.0 * B) * p == p * B``.
    Transfers, combines and outputs carry no fraction and are shared."""
    tasks, ops, outputs = part
    frac = frac_stop - frac_start
    if frac < 0:
        raise ValueError("empty fraction range")
    tasks = [type(t)(**{**vars(t), "size_mb": t.size_mb * frac}) for t in tasks]
    ops = [SliceOp(o.node, o.out, o.src, frac_start, frac_stop) if type(o) is SliceOp else o
           for o in ops]
    return tasks, ops, outputs


def _slice_name(prefix: str, block: int) -> str:
    return f"{prefix}/in/b{block:02d}"


def repaired_name(prefix: str, block: int) -> str:
    return f"{prefix}/out/b{block:02d}"


def add_centralized(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    center: int,
) -> tuple[list[Task], list[Op], dict[int, tuple[int, str]]]:
    """Star repair into ``center``; redistribute the other f-1 blocks.

    Returns (tasks, ops, outputs).  Flow sizes are scaled by the fraction
    width; zero-width fractions still emit the op skeleton (empty buffers)
    so HMBR degenerates gracefully at p0 ~ 0 or ~ 1.
    """
    frac = frac_stop - frac_start
    if frac < 0:
        raise ValueError("empty fraction range")
    size = frac * ctx.block_size_mb
    survivors = ctx.chosen_survivors()
    rmat = np.asarray(ctx.repair_matrix())
    sid = ctx.stripe.stripe_id

    tasks: list[Task] = []
    ops: list[Op] = []
    outputs: dict[int, tuple[int, str]] = {}

    fetch_ids = []
    sliced_names = []
    for b in survivors:
        node = ctx.stripe.placement[b]
        sname = _slice_name(prefix, b)
        ops.append(SliceOp(node, sname, block_name(sid, b), frac_start, frac_stop))
        ops.append(TransferOp(node, center, sname))
        tid = f"{prefix}:fetch:b{b:02d}"
        tasks.append(Flow(tid, src=node, dst=center, size_mb=size, tag=f"{prefix}:fetch"))
        fetch_ids.append(tid)
        sliced_names.append(sname)

    for row, fb in enumerate(ctx.failed_blocks):
        out = repaired_name(prefix, fb)
        ops.append(
            CombineOp(
                node=center,
                out=out,
                coeffs=tuple(int(c) for c in rmat[row]),
                srcs=tuple(sliced_names),
            )
        )
        target = ctx.new_node_of(fb)
        if target != center:
            ops.append(TransferOp(center, target, out))
            tasks.append(
                Flow(
                    f"{prefix}:dist:b{fb:02d}",
                    src=center,
                    dst=target,
                    size_mb=size,
                    deps=tuple(fetch_ids),
                    tag=f"{prefix}:dist",
                )
            )
        outputs[fb] = (target, out)
    return tasks, ops, outputs


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
    degree: int | None = None,
    order: str = "uplink-desc",
) -> tuple[list[Task], list[Op], dict[int, tuple[int, str]]]:
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
    ``"index"`` keeps block order.  ``degree=None`` picks ~sqrt(k), which
    balances tree depth against root fan-in.
    """
    frac = frac_stop - frac_start
    if frac < 0:
        raise ValueError("empty fraction range")
    size = frac * ctx.block_size_mb
    survivors = ctx.chosen_survivors()
    rmat = np.asarray(ctx.repair_matrix())
    col_of_block = {b: i for i, b in enumerate(survivors)}
    sid = ctx.stripe.stripe_id
    k = len(survivors)
    if degree is None:
        degree = max(2, int(round(np.sqrt(k))))
    if order == "index":
        blocks = list(survivors)
    elif order == "uplink-desc":
        blocks = sorted(
            survivors,
            key=lambda b: (-ctx.cluster[ctx.stripe.placement[b]].uplink, b),
        )
    else:
        raise ValueError(f"unknown mlf order {order!r}")
    node_of_pos = [ctx.stripe.placement[b] for b in blocks]
    children = mlf_children(k, degree)

    tasks: list[Task] = []
    ops: list[Op] = []
    outputs: dict[int, tuple[int, str]] = {}

    def edge_id(pos: int) -> str:
        return f"{prefix}:agg:v{pos:02d}"

    def partial_name(fb: int, pos: int) -> str:
        return f"{prefix}/p{fb:02d}/v{pos:02d}"

    # bottom-up so every child partial exists before its parent combines
    for pos in reversed(range(k)):
        node = node_of_pos[pos]
        b = blocks[pos]
        sname = _slice_name(prefix, b)
        ops.append(SliceOp(node, sname, block_name(sid, b), frac_start, frac_stop))
        coeff = rmat[:, col_of_block[b]]
        for row, fb in enumerate(ctx.failed_blocks):
            partial = partial_name(fb, pos)
            kids = children[pos]
            ops.append(
                CombineOp(
                    node=node,
                    out=partial,
                    coeffs=(int(coeff[row]),) + (1,) * len(kids),
                    srcs=(sname,) + tuple(partial_name(fb, c) for c in kids),
                )
            )
        child_edges = tuple(edge_id(c) for c in children[pos])
        if pos > 0:
            parent_node = node_of_pos[(pos - 1) // degree]
            for fb in ctx.failed_blocks:
                ops.append(TransferOp(node, parent_node, partial_name(fb, pos)))
            tasks.append(
                Flow(
                    edge_id(pos),
                    src=node,
                    dst=parent_node,
                    size_mb=ctx.f * size,
                    deps=child_edges,
                    tag=f"{prefix}:agg",
                )
            )
        else:
            # the root's partials are the decoded sub-blocks
            for fb in ctx.failed_blocks:
                out = repaired_name(prefix, fb)
                target = ctx.new_node_of(fb)
                ops.append(TransferOp(node, target, partial_name(fb, pos), rename=out))
                tasks.append(
                    Flow(
                        f"{prefix}:dist:b{fb:02d}",
                        src=node,
                        dst=target,
                        size_mb=size,
                        deps=child_edges,
                        tag=f"{prefix}:dist",
                    )
                )
                outputs[fb] = (target, out)
    return tasks, ops, outputs


def add_independent(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    paths: dict[int, list[int]],
) -> tuple[list[Task], list[Op], dict[int, tuple[int, str]]]:
    """Pipelined chain repair, one chain per failed block.

    ``paths[fb]`` is the node path: the chosen survivors (in some order)
    followed by the failed block's new node.  Every hop carries the partially
    accumulated sub-block; the fluid simulator models the chain as a single
    pipeline flow at the min-hop rate.
    """
    frac = frac_stop - frac_start
    if frac < 0:
        raise ValueError("empty fraction range")
    size = frac * ctx.block_size_mb
    survivors = ctx.chosen_survivors()
    node_to_block = {ctx.stripe.placement[b]: b for b in survivors}
    rmat = np.asarray(ctx.repair_matrix())
    col_of_block = {b: i for i, b in enumerate(survivors)}
    sid = ctx.stripe.stripe_id

    tasks: list[Task] = []
    ops: list[Op] = []
    outputs: dict[int, tuple[int, str]] = {}

    sliced: set[tuple[int, str]] = set()
    for row, fb in enumerate(ctx.failed_blocks):
        path = paths[fb]
        if len(path) != len(survivors) + 1:
            raise ValueError(
                f"chain for block {fb} has {len(path)} nodes, expected k+1={len(survivors) + 1}"
            )
        new_node = path[-1]
        if new_node != ctx.new_node_of(fb):
            raise ValueError(f"chain for block {fb} ends at {new_node}, not its new node")
        prev_partial: str | None = None
        for hop, node in enumerate(path[:-1]):
            b = node_to_block[node]
            sname = _slice_name(prefix, b)
            if (node, sname) not in sliced:
                ops.append(SliceOp(node, sname, block_name(sid, b), frac_start, frac_stop))
                sliced.add((node, sname))
            coeff = int(rmat[row, col_of_block[b]])
            partial = f"{prefix}/p{fb:02d}/h{hop:02d}"
            if prev_partial is None:
                ops.append(CombineOp(node, partial, (coeff,), (sname,)))
            else:
                ops.append(CombineOp(node, partial, (coeff, 1), (sname, prev_partial)))
            nxt = path[hop + 1]
            ops.append(TransferOp(node, nxt, partial))
            prev_partial = partial
        out = repaired_name(prefix, fb)
        # the buffer arriving at the new node *is* the repaired sub-block
        ops.append(CombineOp(new_node, out, (1,), (prev_partial,)))
        tasks.append(
            PipelineFlow(
                f"{prefix}:pipe:b{fb:02d}",
                path=tuple(path),
                size_mb=size,
                tag=f"{prefix}:pipe",
            )
        )
        outputs[fb] = (new_node, out)
    return tasks, ops, outputs
