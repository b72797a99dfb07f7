"""Rack-aware HMBR (§IV-B): rack-aware CR and tree-pipelined IR.

Rack-aware CR elects a *local collector* inside every rack holding survivors;
other survivors send blocks inner-rack to it, it computes f intermediate
blocks (the rack's partial GF sums, one per failed block) and ships only
those f intermediates cross-rack to the *global collector* (the CR center).
Cross-rack traffic drops from one block per survivor to f per rack.

Tree-pipelined IR replaces the f identical chains with per-job repair trees
built greedily over the **least frequently used links** (tracked across jobs)
so independent single-block repairs stop contending on the same links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ec.stripe import block_name
from repro.repair._build import refraction, repaired_name
from repro.repair.context import RepairContext
from repro.repair.plan import CombineOp, ConcatOp, Op, RepairPlan, SliceOp, TransferOp
from repro.repair.topology import default_center
from repro.simnet.flows import Flow, Task


# ------------------------------------------------------------------ #
# Rack-aware centralized repair
# ------------------------------------------------------------------ #
def _build_rack_aware_cr(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    center: int,
    intermediate_policy: str = "paper",
) -> tuple[list[Task], list[Op], dict[int, tuple[int, str]]]:
    """Emit the rack-aware CR sub-plan for a fraction range.

    ``intermediate_policy``:
      * ``"paper"`` — every rack always computes and ships f intermediates
        (§IV-B1 verbatim; slightly wasteful when a rack holds < f survivors,
        which is exactly why rack-aware HMBR degrades at f = rack size in
        Experiment 4).
      * ``"adaptive"`` — a rack ships raw blocks instead when that is cheaper
        (min(f, survivors-in-rack) transfers).
    """
    frac = frac_stop - frac_start
    size = frac * ctx.block_size_mb
    cl = ctx.cluster
    survivors = ctx.chosen_survivors()
    rmat = np.asarray(ctx.repair_matrix())
    col_of = {b: i for i, b in enumerate(survivors)}
    sid = ctx.stripe.stripe_id

    tasks: list[Task] = []
    ops: list[Op] = []
    outputs: dict[int, tuple[int, str]] = {}

    by_rack: dict[int, list[int]] = {}
    for b in survivors:
        by_rack.setdefault(cl.rack_of(ctx.stripe.placement[b]), []).append(b)

    center_inputs: list[str] = []  # buffer names summed at the global collector
    center_input_coeffs: list[int] = []
    center_dep_rows: dict[int, list[str]] = {fb: [] for fb in ctx.failed_blocks}
    per_row_inputs: dict[int, list[tuple[int, str]]] = {fb: [] for fb in ctx.failed_blocks}

    for rack, blocks in sorted(by_rack.items()):
        nodes = [ctx.stripe.placement[b] for b in blocks]
        ship_raw = intermediate_policy == "adaptive" and len(blocks) <= ctx.f
        # slice every survivor's block
        for b, node in zip(blocks, nodes):
            ops.append(
                SliceOp(node, f"{prefix}/in/b{b:02d}", block_name(sid, b), frac_start, frac_stop)
            )
        if ship_raw or len(blocks) == 1 and intermediate_policy == "adaptive":
            # send raw sliced blocks straight to the global collector
            for b, node in zip(blocks, nodes):
                name = f"{prefix}/in/b{b:02d}"
                ops.append(TransferOp(node, center, name))
                tid = f"{prefix}:raw:r{rack}:b{b:02d}"
                tasks.append(Flow(tid, node, center, size, tag=f"{prefix}:cross"))
                for row, fb in enumerate(ctx.failed_blocks):
                    per_row_inputs[fb].append((int(rmat[row, col_of[b]]), name))
                    center_dep_rows[fb].append(tid)
            continue
        # elect the local collector: the rack survivor with the best uplink
        collector = max(nodes, key=lambda n: (cl[n].uplink, -n))
        fetch_ids = []
        for b, node in zip(blocks, nodes):
            if node == collector:
                continue
            name = f"{prefix}/in/b{b:02d}"
            ops.append(TransferOp(node, collector, name))
            tid = f"{prefix}:local:r{rack}:b{b:02d}"
            tasks.append(Flow(tid, node, collector, size, tag=f"{prefix}:local"))
            fetch_ids.append(tid)
        # f intermediate blocks, then cross-rack shipment
        for row, fb in enumerate(ctx.failed_blocks):
            inter = f"{prefix}/mid/r{rack}/b{fb:02d}"
            coeffs = tuple(int(rmat[row, col_of[b]]) for b in blocks)
            srcs = tuple(f"{prefix}/in/b{b:02d}" for b in blocks)
            ops.append(CombineOp(collector, inter, coeffs, srcs))
            ops.append(TransferOp(collector, center, inter))
            tid = f"{prefix}:mid:r{rack}:b{fb:02d}"
            tasks.append(
                Flow(tid, collector, center, size, deps=tuple(fetch_ids), tag=f"{prefix}:cross")
            )
            per_row_inputs[fb].append((1, inter))
            center_dep_rows[fb].append(tid)

    all_deps = tuple(tid for deps in center_dep_rows.values() for tid in deps)
    for fb in ctx.failed_blocks:
        out = repaired_name(prefix, fb)
        coeffs = tuple(c for c, _ in per_row_inputs[fb])
        srcs = tuple(n for _, n in per_row_inputs[fb])
        ops.append(CombineOp(center, out, coeffs, srcs))
        target = ctx.new_node_of(fb)
        if target != center:
            ops.append(TransferOp(center, target, out))
            tasks.append(
                Flow(
                    f"{prefix}:dist:b{fb:02d}",
                    center,
                    target,
                    size,
                    deps=all_deps,
                    tag=f"{prefix}:dist",
                )
            )
        outputs[fb] = (target, out)
    return tasks, ops, outputs


def plan_rack_aware_centralized(
    ctx: RepairContext,
    center: int | None = None,
    intermediate_policy: str = "paper",
) -> RepairPlan:
    """Rack-aware CR as a standalone scheme."""
    if center is None:
        center = default_center(ctx)
    tasks, ops, outputs = _build_rack_aware_cr(ctx, ctx.prefix("racr"), 0.0, 1.0, center, intermediate_policy)
    return RepairPlan(
        scheme="RackAwareCR",
        tasks=tasks,
        ops=ops,
        outputs=outputs,
        meta={"center": center, "policy": intermediate_policy},
    )


# ------------------------------------------------------------------ #
# Tree-pipelined independent repair
# ------------------------------------------------------------------ #
@dataclass
class LinkUsageTracker:
    """Link and NIC usage counts shared across repair jobs.

    Besides per-directed-link counts ("least frequently used link", §IV-B2),
    per-node send/receive counts are kept separately for cross-rack and
    inner-rack traffic: two *distinct* links that share an endpoint still
    share that endpoint's (cross-rack) NIC capacity, so the tree builder must
    spread over nodes, not just over link identities.
    """

    counts: dict[tuple[int, int], int] = field(default_factory=dict)
    node_out: dict[tuple[int, bool], int] = field(default_factory=dict)
    node_in: dict[tuple[int, bool], int] = field(default_factory=dict)

    def usage(self, u: int, v: int) -> int:
        return self.counts.get((u, v), 0)

    def nic_load(self, u: int, v: int, cross: bool) -> int:
        """Combined sender/receiver NIC occupancy for a prospective edge."""
        return self.node_out.get((u, cross), 0) + self.node_in.get((v, cross), 0)

    def use(self, u: int, v: int, cross: bool = False) -> None:
        self.counts[(u, v)] = self.counts.get((u, v), 0) + 1
        self.node_out[(u, cross)] = self.node_out.get((u, cross), 0) + 1
        self.node_in[(v, cross)] = self.node_in.get((v, cross), 0) + 1


def _edge_key(ctx: RepairContext, tracker: LinkUsageTracker, child: int, par: int):
    """Greedy selection key: inner-rack links first (cross-rack bandwidth is
    the scarce resource), then least-used links on least-loaded NICs, then
    the fastest link; node ids break remaining ties deterministically."""
    cl = ctx.cluster
    cross = not cl.same_rack(child, par)
    return (
        int(cross),
        tracker.usage(child, par),
        tracker.nic_load(child, par, cross),
        -min(cl[child].effective_uplink(cross), cl[par].effective_downlink(cross)),
        child,
        par,
    )


def _build_repair_tree(
    ctx: RepairContext,
    root: int,
    survivors_nodes: list[int],
    tracker: LinkUsageTracker,
    max_children: int,
) -> dict[int, int]:
    """Greedy least-frequently-used-link tree: child node -> parent node.

    Implemented as a lazy-revalidation heap: all key components (link usage,
    NIC load) are monotone non-decreasing as edges are chosen, so a popped
    entry whose recomputed key grew is simply re-pushed — the heap minimum
    is always the true greedy choice.  O(k^2 log k) instead of the naive
    O(k^3) scan, which dominates wide-stripe rack-aware planning.
    """
    import heapq

    children_count = {root: 0}
    parent: dict[int, int] = {}
    unconnected = set(survivors_nodes)
    heap: list[tuple] = []

    def push_edges_to(par: int) -> None:
        for child in unconnected:
            heapq.heappush(heap, (_edge_key(ctx, tracker, child, par), child, par))

    push_edges_to(root)
    while unconnected:
        while True:
            if not heap:
                raise ValueError(
                    f"cannot attach {len(unconnected)} nodes with max_children={max_children}"
                )
            key, child, par = heapq.heappop(heap)
            if child not in unconnected or children_count.get(par, 0) >= max_children:
                continue
            fresh = _edge_key(ctx, tracker, child, par)
            if fresh != key:
                heapq.heappush(heap, (fresh, child, par))
                continue
            break
        parent[child] = par
        tracker.use(child, par, cross=not ctx.cluster.same_rack(child, par))
        children_count[par] = children_count.get(par, 0) + 1
        children_count[child] = 0
        unconnected.discard(child)
        if max_children > 0:
            push_edges_to(child)
    return parent


def _build_tree_ir(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    tracker: LinkUsageTracker | None = None,
    max_children: int = 2,
) -> tuple[list[Task], list[Op], dict[int, tuple[int, str]]]:
    """Emit tree-pipelined IR for a fraction range."""
    frac = frac_stop - frac_start
    size = frac * ctx.block_size_mb
    tracker = tracker if tracker is not None else LinkUsageTracker()
    survivors = ctx.chosen_survivors()
    node_of = {b: ctx.stripe.placement[b] for b in survivors}
    block_of = {v: k for k, v in node_of.items()}
    rmat = np.asarray(ctx.repair_matrix())
    col_of = {b: i for i, b in enumerate(survivors)}
    sid = ctx.stripe.stripe_id

    tasks: list[Task] = []
    ops: list[Op] = []
    outputs: dict[int, tuple[int, str]] = {}
    sliced: set[int] = set()

    for row, fb in enumerate(ctx.failed_blocks):
        root = ctx.new_node_of(fb)
        parent = _build_repair_tree(ctx, root, list(node_of.values()), tracker, max_children)
        children: dict[int, list[int]] = {}
        for c, p in parent.items():
            children.setdefault(p, []).append(c)

        # post-order emission: leaves first
        def emit(node: int) -> str:
            """Emit ops computing ``node``'s partial; returns its buffer name."""
            kid_bufs = [emit(c) for c in sorted(children.get(node, []))]
            # after a child's partial is computed, it is transferred up
            local_bufs: list[str] = []
            local_coeffs: list[int] = []
            if node != root:
                b = block_of[node]
                sname = f"{prefix}/in/b{b:02d}"
                if node not in sliced:
                    ops.append(
                        SliceOp(node, sname, block_name(sid, b), frac_start, frac_stop)
                    )
                    sliced.add(node)
                local_bufs.append(sname)
                local_coeffs.append(int(rmat[row, col_of[b]]))
            for c in sorted(children.get(node, [])):
                up_name = f"{prefix}/t{fb:02d}/up{c}"
                local_bufs.append(up_name)
                local_coeffs.append(1)
            partial = f"{prefix}/t{fb:02d}/p{node}"
            ops.append(CombineOp(node, partial, tuple(local_coeffs), tuple(local_bufs)))
            if node != root:
                ops.append(TransferOp(node, parent[node], partial, rename=f"{prefix}/t{fb:02d}/up{node}"))
                tasks.append(
                    Flow(
                        f"{prefix}:tree:b{fb:02d}:e{node}-{parent[node]}",
                        node,
                        parent[node],
                        size,
                        tag=f"{prefix}:tree",
                    )
                )
            return partial

        # ensure children partials are transferred before parents combine:
        # emit() already interleaves Combine/Transfer in post-order.
        root_partial = emit(root)
        out = repaired_name(prefix, fb)
        ops.append(CombineOp(root, out, (1,), (root_partial,)))
        outputs[fb] = (root, out)
    return tasks, ops, outputs


def plan_tree_independent(
    ctx: RepairContext,
    tracker: LinkUsageTracker | None = None,
    max_children: int = 2,
) -> RepairPlan:
    """Tree-pipelined IR as a standalone scheme."""
    tasks, ops, outputs = _build_tree_ir(ctx, ctx.prefix("tir"), 0.0, 1.0, tracker, max_children)
    return RepairPlan(
        scheme="TreeIR",
        tasks=tasks,
        ops=ops,
        outputs=outputs,
        meta={"max_children": max_children},
    )


# ------------------------------------------------------------------ #
# Rack-aware HMBR
# ------------------------------------------------------------------ #
def plan_rack_aware_hybrid(
    ctx: RepairContext,
    center: int | None = None,
    intermediate_policy: str = "paper",
    max_children: int = 2,
    p: float | None = None,
    split: str = "search",
) -> RepairPlan:
    """Rack-aware HMBR: rack-aware CR on the upper sub-blocks, tree IR below.

    The closed-form §III model does not cover the collector/tree topology,
    so the split is chosen by simulation: either a full grid search over the
    combined task graph (``split="search"``, default — never loses to the
    pure rack-aware sub-schemes) or the Theorem 1 formula applied to the two
    sub-schemes' simulated full-block times (``split="sim-theorem1"``).
    """
    from repro.repair.split import search_split
    from repro.simnet.fluid import FluidSimulator

    if center is None:
        center = default_center(ctx)
    # built once over the whole block; the plan re-fractions it at p0
    cr_part = _build_rack_aware_cr(ctx, ctx.prefix("rh.cr"), 0.0, 1.0, center, intermediate_policy)
    ir_part = _build_tree_ir(ctx, ctx.prefix("rh.ir"), 0.0, 1.0, None, max_children)
    if p is not None:
        p0 = float(p)
    elif split == "search":
        p0, _ = search_split(cr_part[0], ir_part[0], ctx.cluster)
    elif split == "sim-theorem1":
        sim = FluidSimulator(ctx.cluster)
        tcr, tir = sim.run(cr_part[0]).makespan, sim.run(ir_part[0]).makespan
        p0 = tir / (tcr + tir) if (tcr + tir) > 0 else 0.5
    else:
        raise ValueError(f"unknown split {split!r} (use 'search' or 'sim-theorem1')")

    cr_tasks, cr_ops, cr_out = refraction(cr_part, 0.0, p0)
    ir_tasks, ir_ops, ir_out = refraction(ir_part, p0, 1.0)

    ops = cr_ops + ir_ops
    outputs: dict[int, tuple[int, str]] = {}
    for fb in ctx.failed_blocks:
        node_cr, upper = cr_out[fb]
        node_ir, lower = ir_out[fb]
        if node_cr != node_ir:
            raise AssertionError("rack-aware CR and tree IR disagree on the new node")
        out = repaired_name(ctx.prefix("rh"), fb)
        ops.append(ConcatOp(node_cr, out, (upper, lower)))
        outputs[fb] = (node_cr, out)

    return RepairPlan(
        scheme="RackAwareHMBR",
        tasks=cr_tasks + ir_tasks,
        ops=ops,
        outputs=outputs,
        meta={
            "p0": p0,
            "split": "override" if p is not None else split,
            "center": center,
            "policy": intermediate_policy,
        },
    )
