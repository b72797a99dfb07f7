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

from repro.ec.stripe import block_name
from repro.repair._build import hybrid_plan, repaired_name
from repro.repair.context import Decisions, RepairContext
from repro.repair.plan import ByteLowering, CombineOp, Op, RepairPlan, SliceOp, TransferOp
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
    d: Decisions,
    intermediate_policy: str = "paper",
) -> tuple:
    """Emit the rack-aware CR sub-plan for a fraction range over the
    frozen decisions ``d``.

    ``intermediate_policy``:
      * ``"paper"`` — every rack always computes and ships f intermediates
        (§IV-B1 verbatim; slightly wasteful when a rack holds < f survivors,
        which is exactly why rack-aware HMBR degrades at f = rack size in
        Experiment 4).
      * ``"adaptive"`` — a rack ships raw blocks instead when that is cheaper
        (min(f, survivors-in-rack) transfers).
    """
    size = (frac_stop - frac_start) * ctx.block_size_mb
    cl = ctx.cluster
    by_rack: dict[int, list[int]] = {}
    for b in d.survivors:
        by_rack.setdefault(cl.rack_of(d.placement[b]), []).append(b)
    # (rack, blocks, their nodes, local collector or None to ship raw blocks)
    racks = []
    for rack, blocks in sorted(by_rack.items()):
        nodes = [d.placement[b] for b in blocks]
        raw = intermediate_policy == "adaptive" and len(blocks) <= ctx.f
        # the local collector: the rack survivor with the best uplink
        collector = None if raw else max(nodes, key=lambda n: (cl[n].uplink, -n))
        racks.append((rack, blocks, nodes, collector))

    tasks: list[Task] = []
    center_deps: dict[int, list[str]] = {fb: [] for fb in d.failed_blocks}
    for rack, blocks, nodes, collector in racks:
        if collector is None:
            # raw sliced blocks go straight to the global collector
            for b, node in zip(blocks, nodes):
                tid = f"{prefix}:raw:r{rack}:b{b:02d}"
                tasks.append(Flow(tid, node, center, size, tag=f"{prefix}:cross"))
                for deps in center_deps.values():
                    deps.append(tid)
            continue
        senders = [(b, n) for b, n in zip(blocks, nodes) if n != collector]
        fetch_ids = tuple(f"{prefix}:local:r{rack}:b{b:02d}" for b, _ in senders)
        tasks += [Flow(t, n, collector, size, tag=f"{prefix}:local")
                  for t, (_, n) in zip(fetch_ids, senders)]
        # f intermediate blocks, then cross-rack shipment
        for fb in d.failed_blocks:
            tid = f"{prefix}:mid:r{rack}:b{fb:02d}"
            tasks.append(Flow(tid, collector, center, size, deps=fetch_ids, tag=f"{prefix}:cross"))
            center_deps[fb].append(tid)
    all_deps = tuple(tid for deps in center_deps.values() for tid in deps)
    outputs: dict[int, tuple[int, str]] = {}
    for fb, target in zip(d.failed_blocks, d.new_nodes):
        if target != center:
            tasks.append(Flow(f"{prefix}:dist:b{fb:02d}", center, target, size,
                              deps=all_deps, tag=f"{prefix}:dist"))
        outputs[fb] = (target, repaired_name(prefix, fb))

    def lower(lo: float, hi: float) -> list[Op]:
        """The byte lowering: the ops over ``[lo, hi)`` of every block."""
        rows = d.rows()
        col_of = {b: i for i, b in enumerate(d.survivors)}
        ops: list[Op] = []
        # per failed block: (coefficient, buffer) summed at the global collector
        center_inputs: dict[int, list[tuple[int, str]]] = {fb: [] for fb in d.failed_blocks}
        for rack, blocks, nodes, collector in racks:
            names = tuple(f"{prefix}/in/b{b:02d}" for b in blocks)
            cols = [col_of[b] for b in blocks]
            for b, node, name in zip(blocks, nodes, names):
                ops.append(SliceOp(node, name, block_name(d.stripe_id, b), lo, hi))
            if collector is None:
                for b, node, name in zip(blocks, nodes, names):
                    ops.append(TransferOp(node, center, name))
                    for row, fb in zip(rows, d.failed_blocks):
                        center_inputs[fb].append((row[col_of[b]], name))
                continue
            ops += [
                TransferOp(node, collector, name)
                for node, name in zip(nodes, names) if node != collector
            ]
            for row, fb in zip(rows, d.failed_blocks):
                inter = f"{prefix}/mid/r{rack}/b{fb:02d}"
                ops.append(CombineOp(collector, inter, tuple(row[c] for c in cols), names))
                ops.append(TransferOp(collector, center, inter))
                center_inputs[fb].append((1, inter))
        for fb, target in zip(d.failed_blocks, d.new_nodes):
            out = repaired_name(prefix, fb)
            coeffs, srcs = zip(*center_inputs[fb])
            ops.append(CombineOp(center, out, coeffs, srcs))
            if target != center:
                ops.append(TransferOp(center, target, out))
        return ops

    return tasks, lower, outputs


def plan_rack_aware_centralized(
    ctx: RepairContext,
    center: int | None = None,
    intermediate_policy: str = "paper",
) -> RepairPlan:
    """Rack-aware CR as a standalone scheme."""
    if center is None:
        center = default_center(ctx)
    d = ctx.decisions()
    tasks, lower, outputs = _build_rack_aware_cr(
        ctx, ctx.prefix("racr"), 0.0, 1.0, center, d, intermediate_policy)
    return RepairPlan(
        scheme="RackAwareCR",
        tasks=tasks,
        ops=ByteLowering(lambda: lower(0.0, 1.0), d),
        outputs=outputs,
        meta={"center": center, "policy": intermediate_policy},
    )


# ------------------------------------------------------------------ #
# Tree-pipelined independent repair
# ------------------------------------------------------------------ #
@dataclass
class _LinkUsageTracker:
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


def _edge_key(ctx: RepairContext, tracker: _LinkUsageTracker, child: int, par: int):
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


#: every repair tree is binary: a node combines at most two children
_MAX_CHILDREN = 2


def _build_repair_tree(
    ctx: RepairContext,
    root: int,
    survivors_nodes: list[int],
    tracker: _LinkUsageTracker,
) -> dict[int, int]:
    """Greedy least-frequently-used-link binary tree: child node -> parent
    node.

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
            # never empty: the node attached last still has a free slot
            key, child, par = heapq.heappop(heap)
            if child not in unconnected or children_count.get(par, 0) >= _MAX_CHILDREN:
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
        push_edges_to(child)
    return parent


def _build_tree_ir(
    ctx: RepairContext,
    prefix: str,
    frac_start: float,
    frac_stop: float,
    d: Decisions,
) -> tuple:
    """Emit tree-pipelined IR for a fraction range over the frozen
    decisions ``d``; its trees share one link-usage tracker, so each
    spreads over links the others left idle."""
    size = (frac_stop - frac_start) * ctx.block_size_mb
    tracker = _LinkUsageTracker()
    block_of = {d.placement[b]: b for b in d.survivors}

    # (failed block, root, child -> parent, nodes leaves first): every
    # child's partial is sent up before its parent combines
    trees = []
    for fb, root in zip(d.failed_blocks, d.new_nodes):
        parent = _build_repair_tree(ctx, root, list(block_of), tracker)
        children: dict[int, list[int]] = {}
        for c, p in parent.items():
            children.setdefault(p, []).append(c)
        kids = {node: sorted(cs) for node, cs in children.items()}

        def post_order(node: int):
            for c in kids.get(node, ()):
                yield from post_order(c)
            yield node

        trees.append((fb, root, parent, kids, list(post_order(root))))
    tasks: list[Task] = [
        Flow(f"{prefix}:tree:b{fb:02d}:e{node}-{parent[node]}", node, parent[node], size,
             tag=f"{prefix}:tree")
        for fb, root, parent, _, order in trees
        for node in order
        if node != root
    ]
    outputs = {fb: (root, repaired_name(prefix, fb)) for fb, root, *_ in trees}

    def lower(lo: float, hi: float) -> list[Op]:
        """The byte lowering: the ops over ``[lo, hi)`` of every block."""
        col_of = {b: i for i, b in enumerate(d.survivors)}
        ops: list[Op] = []
        sliced: set[int] = set()
        for row, (fb, root, parent, kids, order) in zip(d.rows(), trees):
            tree = f"{prefix}/t{fb:02d}"
            for node in order:
                bufs = [f"{tree}/up{c}" for c in kids.get(node, ())]
                coeffs = [1] * len(bufs)
                if node != root:
                    b = block_of[node]
                    sname = f"{prefix}/in/b{b:02d}"
                    if node not in sliced:
                        ops.append(SliceOp(node, sname, block_name(d.stripe_id, b), lo, hi))
                        sliced.add(node)
                    bufs.insert(0, sname)
                    coeffs.insert(0, row[col_of[b]])
                ops.append(CombineOp(node, f"{tree}/p{node}", tuple(coeffs), tuple(bufs)))
                if node != root:
                    ops.append(TransferOp(
                        node, parent[node], f"{tree}/p{node}", rename=f"{tree}/up{node}"))
            ops.append(CombineOp(root, repaired_name(prefix, fb), (1,), (f"{tree}/p{root}",)))
        return ops

    return tasks, lower, outputs


def plan_tree_independent(ctx: RepairContext) -> RepairPlan:
    """Tree-pipelined IR as a standalone scheme."""
    d = ctx.decisions()
    tasks, lower, outputs = _build_tree_ir(ctx, ctx.prefix("tir"), 0.0, 1.0, d)
    return RepairPlan(
        scheme="TreeIR",
        tasks=tasks,
        ops=ByteLowering(lambda: lower(0.0, 1.0), d),
        outputs=outputs,
        meta={"max_children": _MAX_CHILDREN},
    )


# ------------------------------------------------------------------ #
# Rack-aware HMBR
# ------------------------------------------------------------------ #
def plan_rack_aware_hybrid(
    ctx: RepairContext, center: int | None = None, p: float | None = None
) -> RepairPlan:
    """Rack-aware HMBR: rack-aware CR (``"paper"`` intermediates) on the
    upper sub-blocks, binary-tree IR below.

    The closed-form §III model does not cover the collector/tree topology,
    so the split is searched over the combined task graph in the simulator
    (it never loses to the pure rack-aware sub-schemes); ``p`` overrides it.
    """
    from repro.repair.split import search_split

    if center is None:
        center = default_center(ctx)
    d = ctx.decisions()
    # built once over the whole block; the plan re-fractions it at p0
    cr_part = _build_rack_aware_cr(ctx, ctx.prefix("rh.cr"), 0.0, 1.0, center, d)
    ir_part = _build_tree_ir(ctx, ctx.prefix("rh.ir"), 0.0, 1.0, d)
    if p is not None:
        p0 = float(p)
    else:
        p0, _ = search_split(cr_part[0], ir_part[0], ctx.cluster)

    return hybrid_plan("RackAwareHMBR", ctx.prefix("rh"), cr_part, ir_part, p0, d, {
        "p0": p0,
        "split": "override" if p is not None else "search",
        "center": center,
        "policy": "paper",
    })
