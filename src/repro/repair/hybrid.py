"""HMBR: hybrid multi-block repair (§III-§IV-A).

Every available block is split at the word-aligned boundary ``p0`` (Theorem
1): the *upper* sub-blocks are repaired centrally (CR) while the *lower*
sub-blocks are repaired by f independent pipelines (IR); the two sub-repairs
run in parallel and each new node concatenates its two repaired sub-blocks
(Step 4 of §IV-A).  At p0 = 0 or 1 the plan is pure IR or CR (§III): the one
non-empty sub-plan, with nothing to concatenate.
"""

from __future__ import annotations

from repro.repair._build import add_centralized, add_independent, hybrid_plan
from repro.repair.context import RepairContext
from repro.repair.model import repair_model, volume_split
from repro.repair.plan import RepairPlan
from repro.repair.split import search_split
from repro.repair.topology import build_chain_paths, default_center


def whole_block(
    ctx: RepairContext, center: int, chain_order: str = "index", keep=False, d=None
):
    """HMBR's CR and IR sub-plans ``(tasks, lower, outputs)`` over the whole
    block, which split search scores and every split's plan re-fractions.
    ``keep`` leaves the build on ``ctx``; the next call takes it back instead
    of building while the chosen survivors, center and chain order match (a
    helper can die before a lazily planned stripe runs), else drops it.
    ``d`` is ``ctx.decisions()`` when the caller froze them; either way they
    are derived once and handed to both builders."""
    d = ctx.decisions() if d is None else d
    key = (d.survivors, center, chain_order)
    kept, ctx._template = ctx._template, None
    if kept is None or kept[0] != key:
        paths = build_chain_paths(ctx, chain_order, d)
        kept = key, (
            add_centralized(ctx, ctx.prefix("h.cr"), 0.0, 1.0, center, d),
            add_independent(ctx, ctx.prefix("h.ir"), 0.0, 1.0, paths, d),
        )
    if keep:
        ctx._template = kept
    return kept[1]


def plan_hybrid(
    ctx: RepairContext,
    p: float | None = None,
    center: int | None = None,
    chain_order: str = "index",
    split: str = "search",
    events=(),
) -> RepairPlan:
    """Build the HMBR plan.

    ``split`` chooses how the ratio is derived when ``p`` is not given (see
    :mod:`repro.repair.split` for the trade-offs):

    * ``"search"`` (default) — minimize the fluid-simulated makespan of the
      actual task graph over p; never loses to pure CR or IR.
    * ``"volume"`` — per-node volume bottleneck equalization, the arithmetic
      of the paper's §II-E example (accounts for shared links, closed form);
    * ``"theorem1"`` — the closed-form p0 of §III (T_CR(p0) = T_IR(p0)),
      which treats the two sub-repairs as fully independent.

    ``p`` overrides the ratio outright (used by the p-sweep ablation).

    ``events`` (optional BandwidthEvents) makes the searched split
    *dynamics-aware*: p is chosen against the predicted bandwidth
    trajectory instead of the current snapshot (§VII future work).
    """
    if center is None:
        center = default_center(ctx)
    d = ctx.decisions()
    cr_part, ir_part = whole_block(ctx, center, chain_order, d=d)
    if p is not None:
        p0 = float(p)
    elif split == "search":
        p0, _ = search_split(cr_part[0], ir_part[0], ctx.cluster, events=events)
    elif split == "volume":
        p0 = volume_split(ctx, center=center, chain_order=chain_order)
    elif split == "theorem1":
        p0 = repair_model(ctx, center=center, chain_order=chain_order).p0
    else:
        raise ValueError(f"unknown split {split!r} (use 'search', 'volume' or 'theorem1')")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"split ratio {p0} outside [0, 1]")

    return hybrid_plan("HMBR", ctx.prefix("h"), cr_part, ir_part, p0, d, {
        "p0": p0,
        "split": "override" if p is not None else split,
        "center": center,
        "chain_order": chain_order,
        "survivors": list(d.survivors),
    })
