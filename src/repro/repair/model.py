"""The paper's analytical repair-transfer-time model (§III).

Implements the practical-bandwidth cases (§III-B1), the CR / IR transfer
times (Equations 2 and 3), the hybrid split (Equation 4-6) and the optimal
ratio p0 of Lemma 1 / Theorem 1:

    T_CR(p) = p * T_CR          T_IR(p) = (1 - p) * T_IR
    T(p)    = max(T_CR(p), T_IR(p))
    p0      = T_IR / (T_CR + T_IR)        (where T_CR(p0) = T_IR(p0))
    T(p0)   = T_CR * T_IR / (T_CR + T_IR)

HMBR uses this model to *choose* p0; measured times come from the fluid
simulator, mirroring the paper's model-vs-testbed split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.repair.context import RepairContext
from repro.repair.topology import build_chain_paths, default_center


# ------------------------------------------------------------------ #
# §III-B1 practical bandwidth cases
# ------------------------------------------------------------------ #
def bw_single_to_single(uplink: float, downlink: float) -> float:
    """Case 1: bw = min(U_sender, D_receiver)."""
    return min(uplink, downlink)


def bw_single_to_multiple(uplink: float, downlink: float, r: int) -> float:
    """Case 2: sender fans out to r receivers; bw = min(U/r, D_receiver)."""
    if r < 1:
        raise ValueError("receiver count must be >= 1")
    return min(uplink / r, downlink)


def bw_multiple_to_single(uplink: float, downlink: float, s: int) -> float:
    """Case 3: s senders into one receiver; bw = min(U_sender, D/s)."""
    if s < 1:
        raise ValueError("sender count must be >= 1")
    return min(uplink, downlink / s)


# ------------------------------------------------------------------ #
# Equations (2) and (3)
# ------------------------------------------------------------------ #
def t_cr(ctx: RepairContext, center: int | None = None) -> float:
    """Equation (2): CR transfer time.

    Stage 1: k survivors -> center (multiple-to-single, k connections).
    Stage 2: center -> the other f-1 new nodes (single-to-multiple).
    """
    if center is None:
        center = default_center(ctx)
    cl = ctx.cluster
    survivors = ctx.survivor_nodes()
    k = len(survivors)
    d_center = cl[center].downlink
    stage1_bw = min(
        bw_multiple_to_single(cl[n].uplink, d_center, k) for n in survivors
    )
    t1 = ctx.block_size_mb / stage1_bw

    others = [ctx.new_node_of(b) for b in ctx.failed_blocks if ctx.new_node_of(b) != center]
    if not others:
        return t1
    u_center = cl[center].uplink
    stage2_bw = min(
        bw_single_to_multiple(u_center, cl[n].downlink, len(others)) for n in others
    )
    return t1 + ctx.block_size_mb / stage2_bw


def t_ir(ctx: RepairContext, chain_order: str = "index") -> float:
    """Equation (3): IR transfer time, f pipelines over the slowest link.

    T_IR = f * B / min over adjacent (i, j) of bw1(i, j): every adjacent pair
    of every chain carries f blocks in total, so the slowest single link paces
    the whole pipelined repair.
    """
    cl = ctx.cluster
    paths = build_chain_paths(ctx, chain_order, ctx.decisions())
    min_bw = min(
        bw_single_to_single(cl[a].uplink, cl[b].downlink)
        for path in paths.values()
        for a, b in zip(path[:-1], path[1:])
    )
    return ctx.f * ctx.block_size_mb / min_bw


# ------------------------------------------------------------------ #
# Equations (4)-(6), Lemma 1 and Theorem 1
# ------------------------------------------------------------------ #
def t_cr_of_p(p: float, tcr: float) -> float:
    """Equation (4), CR part: T_CR(p) = p * T_CR."""
    return p * tcr

def t_ir_of_p(p: float, tir: float) -> float:
    """Equation (4), IR part: T_IR(p) = (1-p) * T_IR."""
    return (1.0 - p) * tir


def t_of_p(p: float, tcr: float, tir: float) -> float:
    """Equation (5): T(p) = max(T_CR(p), T_IR(p))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return max(t_cr_of_p(p, tcr), t_ir_of_p(p, tir))


def optimal_split(tcr: float, tir: float) -> float:
    """The p0 of Theorem 1: T_CR(p0) = T_IR(p0) -> p0 = T_IR/(T_CR+T_IR)."""
    if tcr < 0 or tir < 0:
        raise ValueError("transfer times must be non-negative")
    if tcr == 0 and tir == 0:
        return 0.5  # degenerate: any split is optimal
    return tir / (tcr + tir)


def t_hybrid(tcr: float, tir: float) -> float:
    """T(p0) = T_CR * T_IR / (T_CR + T_IR) (parallel combination)."""
    if tcr == 0 or tir == 0:
        return 0.0
    return tcr * tir / (tcr + tir)


def volume_split(
    ctx: RepairContext,
    center: int | None = None,
    chain_order: str = "index",
) -> float:
    """Contention-aware split: equalize *per-node volume* bottlenecks.

    The §III closed form treats CR and IR as independent, but they share
    links: the center's downlink carries the k CR fetches *and* the IR chain
    ending at the center; every survivor's uplink carries one CR fetch *and*
    f chain hops.  The paper's own §II-E example accounts for exactly this
    (N1' downloads "four sub-blocks, including three from centralized repair
    and one from independent repair").  Generalizing that arithmetic, each
    node's finish time is (bytes through its link) / (link rate), linear in
    p, so T(p) = max of linear functions is convex piecewise-linear; we
    minimize it exactly over the pairwise intersection points.

    This split never does worse than the pure schemes in the volume model
    (p = 0 reduces to IR, p = 1 to CR), restoring the paper's "HMBR always
    outperforms CR and IR" under heavy CR/IR imbalance where the Theorem 1
    split can lose to contention.
    """
    if center is None:
        center = default_center(ctx)
    lines = _volume_lines(ctx, center, chain_order)

    def t_at(p: float) -> float:
        return max(s * p + i for s, i in lines)

    candidates = {0.0, 1.0}
    for i, (s1, i1) in enumerate(lines):
        for s2, i2 in lines[i + 1 :]:
            # Near-parallel lines make (i2-i1)/(s1-s2) ill-conditioned: a
            # slope difference at rounding-noise scale can throw the
            # intersection to a wild p that floating error then lands inside
            # (0, 1).  Skip intersections whose slope gap is below a
            # *relative* tolerance of the slope magnitudes — the optimum of
            # a convex max-of-lines never sits at such a crossing anyway
            # (the endpoints and well-separated crossings cover it).
            denom = s1 - s2
            scale = max(abs(s1), abs(s2), 1e-12)
            if abs(denom) <= 1e-9 * scale:
                continue
            p = (i2 - i1) / denom
            if 0.0 < p < 1.0:
                candidates.add(p)
    return min(candidates, key=t_at)


def _volume_lines(
    ctx: RepairContext, center: int, chain_order: str = "index"
) -> list[tuple[float, float]]:
    """Per-bottleneck finish-time lines ``T = slope * p + intercept``.

    One line per (node, direction) bottleneck of the volume model described
    in :func:`volume_split`; exposed separately so property tests can
    evaluate ``T(p)`` at the split the optimizer returns.
    """
    cl = ctx.cluster
    b = ctx.block_size_mb
    f = ctx.f
    k = ctx.k
    d = ctx.decisions()
    paths = build_chain_paths(ctx, chain_order, d)

    # lines T = slope * p + intercept, one per (node, direction) bottleneck
    lines: list[tuple[float, float]] = []

    # chain positions: incoming/outgoing hop counts per node over all chains
    in_hops: dict[int, int] = {}
    out_hops: dict[int, int] = {}
    for path in paths.values():
        for a, c in zip(path[:-1], path[1:]):
            out_hops[a] = out_hops.get(a, 0) + 1
            in_hops[c] = in_hops.get(c, 0) + 1

    survivors = [d.placement[s] for s in d.survivors]
    for n in survivors:
        # uplink: p*B (CR fetch) + (1-p)*B per outgoing chain hop
        oh = out_hops.get(n, 0)
        lines.append(((1 - oh) * b / cl[n].uplink, oh * b / cl[n].uplink))
        # downlink: (1-p)*B per incoming chain hop
        ih = in_hops.get(n, 0)
        if ih:
            lines.append((-ih * b / cl[n].downlink, ih * b / cl[n].downlink))

    # center: downlink gets k fetches (p) + its incoming chain hops (1-p)
    ihc = in_hops.get(center, 0)
    lines.append(
        ((k - ihc) * b / cl[center].downlink, ihc * b / cl[center].downlink)
    )
    # center uplink: distributes f-1 upper sub-blocks
    if f > 1:
        lines.append(((f - 1) * b / cl[center].uplink, 0.0))
    # other new nodes: p (dist) + (1-p) (chain) inbound = constant volume
    for fb in ctx.failed_blocks:
        nn = ctx.new_node_of(fb)
        if nn == center:
            continue
        ih = in_hops.get(nn, 0)
        lines.append(((1 - ih) * b / cl[nn].downlink, ih * b / cl[nn].downlink))
    return lines


@dataclass
class RepairModel:
    """Bundle of model quantities for one context/topology."""

    t_cr: float
    t_ir: float
    p0: float
    t_hmbr: float
    center: int

    def t(self, p: float) -> float:
        return t_of_p(p, self.t_cr, self.t_ir)


def repair_model(
    ctx: RepairContext,
    center: int | None = None,
    chain_order: str = "index",
) -> RepairModel:
    """Evaluate the full §III model for a repair context."""
    if center is None:
        center = default_center(ctx)
    tcr = t_cr(ctx, center)
    tir = t_ir(ctx, chain_order)
    return RepairModel(
        t_cr=tcr,
        t_ir=tir,
        p0=optimal_split(tcr, tir),
        t_hmbr=t_hybrid(tcr, tir),
        center=center,
    )
