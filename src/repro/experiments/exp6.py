"""Experiment 6 (Table II): overall repair time breakdown, T_t vs T_o.

For (k, m) ∈ {(32, 4), (64, 8)} with f = m under WLD-8x, decompose the
overall repair time into network transfer time T_t (fluid simulation) and
everything else T_o (GF compute measured by the executor on real buffers and
scaled, plus modeled disk I/O and fixed overhead).  The paper reports T_t
dominating at ~85-90% for all three schemes.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.breakdown import CostModel, breakdown_from_trace
from repro.experiments.common import build_scenario, format_table, plan_for
from repro.obs import Tracer
from repro.simnet.fluid import FluidSimulator
from repro.system.executor import PlanExecutor, Workspace

DEFAULT_CASES = [(32, 4), (64, 8)]
SCHEMES = ["cr", "ir", "hmbr"]

#: Paper's Table II for side-by-side printing.
PAPER_TABLE2 = {
    ("CR", (32, 4)): (9.52, 1.08, 89.81),
    ("CR", (64, 8)): (21.04, 2.56, 89.15),
    ("IR", (32, 4)): (10.8, 2.0, 84.38),
    ("IR", (64, 8)): (25.92, 2.68, 90.63),
    ("HMBR", (32, 4)): (4.67, 0.79, 85.47),
    ("HMBR", (64, 8)): (8.64, 1.46, 85.54),
}


def run(
    cases: list[tuple[int, int]] | None = None,
    wld: str = "WLD-8x",
    seed: int = 2023,
    block_size_mb: float = 64.0,
    test_block_bytes: int = 1 << 18,
    cost: CostModel | None = None,
) -> list[dict]:
    cases = cases or DEFAULT_CASES
    cost = cost or CostModel()
    rows = []
    rng = np.random.default_rng(seed)
    for k, m in cases:
        f = m
        sc = build_scenario(k, m, f, wld=wld, seed=seed, block_size_mb=block_size_mb)
        ctx = sc.ctx
        data = rng.integers(0, 256, size=(k, test_block_bytes), dtype=np.uint8)
        full = ctx.code.encode_stripe(data)
        for scheme in SCHEMES:
            plan = plan_for(ctx, scheme)
            ws = Workspace()
            ws.load_stripe(ctx.stripe, full)
            for node in sc.dead_nodes:
                ws.drop_node(node)
            # the Table II row is regenerated from recorded spans: the
            # executor and the fluid simulator both write into one tracer,
            # and breakdown_from_trace reads T_t / GF bytes back out of it
            # (bit-identical to the live breakdown_for_plan path).
            tracer = Tracer()
            PlanExecutor(ws).execute(
                plan,
                verify_against={b: full[b] for b in ctx.failed_blocks},
                tracer=tracer,
            )
            FluidSimulator(ctx.cluster).run(plan.tasks, tracer=tracer)
            bd = breakdown_from_trace(tracer, ctx, test_block_bytes=test_block_bytes, cost=cost)
            row = {
                "scheme": plan.scheme,
                "(k,m)": f"({k},{m})",
                "T_t_s": bd.transfer_s,
                "T_o_s": bd.other_s,
                "T_t_frac_%": 100.0 * bd.transfer_fraction,
            }
            paper = PAPER_TABLE2.get((plan.scheme, (k, m)))
            if paper:
                row["paper_T_t"] = paper[0]
                row["paper_T_o"] = paper[1]
                row["paper_frac_%"] = paper[2]
            rows.append(row)
    return rows


def main() -> None:
    rows = run()
    print("Experiment 6 (Table II) — repair time breakdown under WLD-8x, f = m")
    print(format_table(rows, floatfmt=".2f"))
    fracs = [r["T_t_frac_%"] for r in rows]
    print(f"\nmean transfer fraction: {np.mean(fracs):.1f}%  (paper: 87.5% average)")


if __name__ == "__main__":
    main()
