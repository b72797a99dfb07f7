"""Single-block repair schemes: the baselines IR builds on (§II-D, §VI).

Wide-stripe papers optimize the single-block case first; HMBR's IR module is
"pipelined single-block repair, run f times".  This module provides the three
classic single-block schemes as standalone planners over the same plan IR:

* **star** — conventional repair: k survivors send to the new node, which
  decodes (the f = 1 special case of CR).
* **chain (RP [16])** — repair pipelining: survivors form a chain, each hop
  forwards the GF-accumulated partial in slices; time ~ B / min-link
  regardless of k.
* **ppr (PPR [8])** — partial-parallel repair: survivors pair up over
  ceil(log2(k+1)) rounds, halving the active senders each round; each round
  moves B bytes per pair in parallel.

All three produce executable + simulatable plans and are compared in the
benchmarks (the chain's k-independence is the reason wide stripes remain
repairable at all).
"""

from __future__ import annotations

from repro.ec.stripe import block_name
from repro.repair._build import add_independent, repaired_name
from repro.repair.context import RepairContext
from repro.repair.plan import ByteLowering, CombineOp, Op, RepairPlan, SliceOp, TransferOp
from repro.repair.topology import build_chain_paths
from repro.simnet.flows import Flow


def _single_failure(ctx: RepairContext) -> int:
    if ctx.f != 1:
        raise ValueError(f"single-block planners need f = 1, got f = {ctx.f}")
    return ctx.failed_blocks[0]


def plan_star(ctx: RepairContext) -> RepairPlan:
    """Conventional single-block repair: everyone sends to the new node."""
    fb = _single_failure(ctx)
    new_node = ctx.new_node_of(fb)
    d = ctx.decisions()
    prefix = ctx.prefix("star")
    nodes = [d.placement[b] for b in d.survivors]
    names = tuple(f"{prefix}/in/b{b:02d}" for b in d.survivors)
    tasks = [
        Flow(f"{prefix}:fetch:b{b:02d}", node, new_node, ctx.block_size_mb)
        for b, node in zip(d.survivors, nodes)
    ]
    out = repaired_name(prefix, fb)

    def lower() -> list[Op]:
        """The byte lowering over the whole block."""
        ops: list[Op] = []
        for b, node, name in zip(d.survivors, nodes, names):
            ops.append(SliceOp(node, name, block_name(d.stripe_id, b), 0.0, 1.0))
            ops.append(TransferOp(node, new_node, name))
        ops.append(CombineOp(new_node, out, tuple(d.rows()[0]), names))
        return ops

    return RepairPlan(
        "StarSingle", tasks, ByteLowering(lower, d), {fb: (new_node, out)},
        {"new_node": new_node},
    )


def plan_chain(ctx: RepairContext, chain_order: str = "index") -> RepairPlan:
    """Repair pipelining (RP): one chain through the survivors."""
    _single_failure(ctx)
    d = ctx.decisions()
    paths = build_chain_paths(ctx, chain_order, d)
    tasks, lower, outputs = add_independent(ctx, ctx.prefix("rp"), 0.0, 1.0, paths, d)
    return RepairPlan(
        "ChainSingle", tasks, ByteLowering(lambda: lower(0.0, 1.0), d),
        outputs, {"chain_order": chain_order},
    )


def plan_ppr(ctx: RepairContext) -> RepairPlan:
    """Partial-parallel repair (PPR): log2 rounds of pairwise aggregation.

    Round r: active holders pair up; the sender of each pair transfers its
    partial to the receiver, which XOR-aggregates.  After ceil(log2(k+1))
    rounds one node holds the full sum and forwards it to the new node.
    Wall-clock ~ (log2 k) * B / bw instead of the star's k * B / bw at the
    choke point.
    """
    fb = _single_failure(ctx)
    new_node = ctx.new_node_of(fb)
    d = ctx.decisions()
    prefix = ctx.prefix("ppr")

    # (round, sender, receiver) of every pairwise hop, in round order
    holders = [d.placement[b] for b in d.survivors]
    hops: list[tuple[int, int, int]] = []
    rnd = 0
    while len(holders) > 1:
        rnd += 1
        hops += [(rnd, holders[i + 1], holders[i]) for i in range(0, len(holders) - 1, 2)]
        holders = holders[::2]
    root = holders[0]  # a survivor, so never the new node

    tasks = []
    last_round_task: dict[int, str] = {}
    for r, sender, receiver in hops:
        deps = tuple(t for t in (last_round_task.get(sender), last_round_task.get(receiver)) if t)
        tid = f"{prefix}:r{r}:{sender}->{receiver}"
        tasks.append(Flow(tid, sender, receiver, ctx.block_size_mb, deps=deps))
        last_round_task[receiver] = tid
    deps = tuple(t for t in (last_round_task.get(root),) if t)
    tasks.append(Flow(f"{prefix}:final", root, new_node, ctx.block_size_mb, deps=deps))
    out = repaired_name(prefix, fb)

    def lower() -> list[Op]:
        """The byte lowering over the whole block."""
        # each survivor starts with its scaled block as the local partial
        ops: list[Op] = []
        partial_of: dict[int, str] = {}
        for coeff, b in zip(d.rows()[0], d.survivors):
            node = d.placement[b]
            in_name, pname = f"{prefix}/in/b{b:02d}", f"{prefix}/p/{node}/r0"
            ops.append(SliceOp(node, in_name, block_name(d.stripe_id, b), 0.0, 1.0))
            ops.append(CombineOp(node, pname, (coeff,), (in_name,)))
            partial_of[node] = pname
        for r, sender, receiver in hops:
            up_name, merged = f"{prefix}/up/{sender}/r{r}", f"{prefix}/p/{receiver}/r{r}"
            ops.append(TransferOp(sender, receiver, partial_of[sender], rename=up_name))
            ops.append(CombineOp(receiver, merged, (1, 1), (partial_of[receiver], up_name)))
            partial_of[receiver] = merged
        ops.append(TransferOp(root, new_node, partial_of[root], rename=out))
        return ops

    return RepairPlan(
        "PPRSingle", tasks, ByteLowering(lower, d), {fb: (new_node, out)},
        {"rounds": rnd + 1, "new_node": new_node},
    )


SINGLE_BLOCK_SCHEMES = {
    "star": plan_star,
    "chain": plan_chain,
    "ppr": plan_ppr,
}
