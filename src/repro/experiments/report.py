"""EXPERIMENTS.md generator: run every harness and record paper-vs-measured.

``python -m repro.experiments.report`` regenerates ``EXPERIMENTS.md`` in the
repository root, and ``--check`` exits 1 with a diff while it is stale, so the
document always reflects what the code produces.  Each section records the
paper's claim, our measured rows, and an honest note where shapes deviate.
"""

from __future__ import annotations

import argparse
import datetime
import difflib
from pathlib import Path

import numpy as np

from repro.experiments import (
    exp1,
    exp2,
    exp3,
    exp4,
    exp5,
    exp6,
    exp_dynamic,
    exp_foreground,
    exp_lrc,
    exp_reliability,
    exp_slo,
    sensitivity,
    table1,
)


def _md_table(rows: list[dict], floatfmt: str = ".2f") -> str:
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())

    def cell(v):
        return f"{v:{floatfmt}}" if isinstance(v, float) else str(v)

    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    lines += ["| " + " | ".join(cell(r.get(c, "")) for c in cols) + " |" for r in rows]
    return "\n".join(lines)


def _section(title: str, claim: str, rows: list[dict], note: str, floatfmt=".2f") -> str:
    return (
        f"## {title}\n\n**Paper's claim.** {claim}\n\n"
        f"{_md_table(rows, floatfmt)}\n\n**Reproduction note.** {note}\n"
    )


def generate(path: str | Path = "EXPERIMENTS.md", quick: bool = False) -> Path:
    """Run all harnesses and write the report; returns the output path.

    ``quick=True`` shrinks grids/seeds (used by tests); the committed
    document is generated with ``quick=False``.
    """
    Path(path).write_text(_render(quick))
    return Path(path)


def _render(quick: bool = False) -> str:
    seeds = (2023,) if quick else (2023, 2024, 2025)
    sections: list[str] = []

    # ---------------- Table I ---------------- #
    rows = table1.run()
    sections.append(
        _section(
            "Table I — multi-block failure ratio after a correlated outage",
            "With 1% of nodes lost after a power outage, the fraction R of "
            "affected stripes that lost **multiple** blocks grows with the "
            "stripe width and the cluster size, reaching ~30% at k = 64.",
            rows,
            "Exact hypergeometric computation (the paper simulated). Every "
            "cell lands within ~0.4 points of the paper; the Monte-Carlo and "
            "literal placement simulators agree (see tests/benchmarks).",
        )
    )

    # ---------------- Experiment 1 ---------------- #
    rows = exp1.run(seeds=seeds)
    best_cr = max(r["hmbr_vs_cr_%"] for r in rows)
    best_ir = max(r["hmbr_vs_ir_%"] for r in rows)
    sections.append(
        _section(
            "Experiment 1 (Fig. 8) — repair time vs (k, m, f) per workload",
            "HMBR reduces multi-block repair time by up to 57.5% vs CR and "
            "64.8% vs IR at (64,8,8) under WLD-8x; IR beats CR under the 2x "
            "gap but deteriorates as the gap widens.",
            rows,
            f"HMBR wins every cell (max reduction {best_cr:.1f}% vs CR, "
            f"{best_ir:.1f}% vs IR). The IR-vs-CR crossover appears at the 8x "
            "gap in our calibration (the paper saw it from 4x): our fastest "
            "node is pinned at 200 MB/s for every dataset, so the crossover "
            "point shifts with the min-bandwidth calibration, not the "
            "mechanism.",
        )
    )

    # ---------------- Experiment 2 ---------------- #
    rows = exp2.run(seeds=seeds)
    sections.append(
        _section(
            "Experiment 2 (Fig. 9) — repair time vs f under WLD-2x",
            "Repair time grows quickly with f; CR loses to IR across f under "
            "the small gap; HMBR always wins.",
            rows,
            "All three observations hold: IR and HMBR scale ~linearly with "
            "f, CR is flat (center-downlink bound, ~k·B/D regardless of f), "
            "and HMBR ≤ min(CR, IR) everywhere.",
        )
    )

    # ---------------- Experiment 3 ---------------- #
    rows = exp3.run(seeds=seeds)
    sections.append(
        _section(
            "Experiment 3 (Fig. 10) — repair time vs block size under WLD-4x",
            "Times grow with block size; the gaps between schemes stay stable.",
            rows,
            "Exact linear scaling in B (every term of the §III model is "
            "proportional to B) with scheme ratios constant across sizes.",
        )
    )

    # ---------------- Experiment 4 ---------------- #
    rows = exp4.run(seeds=seeds if not quick else (2023,))
    mean_red = float(np.mean([r["reduction_%"] for r in rows]))
    sections.append(
        _section(
            "Experiment 4 (Fig. 11) — HMBR vs rack-aware HMBR",
            "Rack-aware HMBR cuts repair time by 33.9% on average (up to "
            "55.3% at (64,8), f=2) and becomes slightly worse at f = rack "
            "size, where per-rack intermediates stop saving cross traffic.",
            rows,
            f"Direction reproduced (mean reduction {mean_red:.1f}%), and the "
            "cross-traffic mechanism matches exactly: rack-aware ships "
            "f·(#racks) cross blocks, fewer than plain HMBR below f = rack "
            "size and **more** at f = 8 (see the cross_mb columns). Our "
            "f-trend differs from the paper's: the least-used-link repair "
            "trees keep paying off at large f because the chain-IR baseline "
            "shares every cross link f ways, so the reduction grows rather "
            "than shrinks — the paper's baseline IR appears to have been "
            "less cross-contended on EC2.",
        )
    )

    # ---------------- Experiment 5 ---------------- #
    rows = exp5.run(seeds=seeds if not quick else (2023,))
    mean_red = float(np.mean([r["reduction_%"] for r in rows]))
    max_red = max(r["reduction_%"] for r in rows)
    sections.append(
        _section(
            "Experiment 5 (Fig. 12) — multi-node repair ± LFS+LRS scheduling",
            "The §IV-C center scheduler reduces multi-node repair time by "
            "10.9% on average and up to 15.9%.",
            rows,
            f"Mean reduction {mean_red:.1f}%, max {max_red:.1f}%. Gains "
            "concentrate in wide stripes where centers are genuinely "
            "contended; with few replacement candidates per stripe the "
            "scheduler has no freedom and the effect vanishes (small-k "
            "rows). Reproducing this experiment required splitting over the "
            "whole round (each stripe's p from the round's volume LP) — "
            "isolated per-stripe splits invert the result (an ablation).",
        )
    )

    # ---------------- Experiment 6 ---------------- #
    rows = exp6.run()
    fracs = [r["T_t_frac_%"] for r in rows]
    sections.append(
        _section(
            "Experiment 6 (Table II) — repair-time breakdown",
            "Network transfer time dominates the overall repair time "
            "(87.5% on average across CR/IR/HMBR at (32,4) and (64,8)).",
            rows,
            f"Mean transfer fraction {float(np.mean(fracs)):.1f}% (paper "
            "87.5%). T_t comes from the fluid simulator; T_o charges the "
            "executor's measured GF byte counts to an ISA-L-class cost "
            "model plus disk I/O — raw Python kernel seconds are reported "
            "separately since they are ~20x off ISA-L.",
        )
    )

    # ---------------- Extensions ---------------- #
    rows = exp_dynamic.run(seeds=seeds)
    sections.append(
        _section(
            "Extension (§VII future work) — dynamic bandwidth workloads",
            "The paper defers dynamic workloads to future work. We add "
            "bandwidth-change events to the simulator and a dynamics-aware "
            "split that searches p against the predicted trajectory.",
            rows,
            "When half the survivors lose 8x bandwidth mid-repair, the "
            "stale split (searched against the snapshot) loses most of "
            "HMBR's advantage; the dynamics-aware split recovers it by "
            "shifting work toward the centralized path.",
        )
    )

    rows = sensitivity.run(seeds=seeds)
    sections.append(
        _section(
            "Extension — robustness to bandwidth-table error",
            "HMBR plans from a measured bandwidth table (§IV assumes one "
            "exists); how wrong can it be before the hybrid stops paying?",
            rows,
            "Splits planned from a corrupted table and measured on the true "
            "cluster: ~10% table error costs ~5% regret, ~20% costs ~10%, "
            "and HMBR keeps beating both pure schemes until errors reach "
            "~40%.",
        )
    )

    rows = exp_reliability.run()
    sections.append(
        _section(
            "Extension — durability pay-off (MTTDL)",
            "The paper motivates fast multi-block repair with failure "
            "statistics; this closes the loop to data durability via the "
            "Markov MTTDL model (1-minute detection delay, 10,000 h node "
            "MTTF, repair rates from the measured repair times).",
            rows,
            "Faster multi-block repair converts directly into MTTDL: HMBR "
            "buys ~1.1-1.4x over IR and up to ~10x over CR at (64,8), where "
            "CR's k-proportional repair times dominate the repair window.",
            floatfmt=".3g",
        )
    )

    rows = exp_lrc.run()
    sections.append(
        _section(
            "Extension — wide-stripe RS + HMBR vs Azure-style LRC",
            "Related work (§VI): LRC trades storage for local repair; wide "
            "stripes chase the redundancy floor instead and lean on repair "
            "machinery.",
            rows,
            "LRC reads 8x fewer blocks per single-block repair, yet the "
            "wide stripe's *pipelined* repair is faster in wall-clock time "
            "(a chain moves B bytes per link; LRC's star divides the new "
            "node's downlink by the group size) — while storing less. LRC "
            "keeps the I/O advantage, which matters for disk-bound "
            "clusters.",
        )
    )

    rows = exp_slo.run(seeds=seeds[:2])
    sections.append(
        _section(
            "Extension — widest stripe under a repair-time SLO",
            "The paper's contribution, priced in storage: fix a repair-time "
            "budget and ask how wide (cheap) stripes can go per scheme.",
            rows,
            "Under a 5 s budget with f = 4 on WLD-4x, CR affords only k = 4 "
            "(3.0x redundancy) while HMBR affords k = 96 (1.083x) — repair "
            "machinery is what makes near-1x redundancy operable.",
        )
    )

    rows = exp_foreground.run(seeds=seeds)
    sections.append(
        _section(
            "Extension — repair's impact on foreground traffic",
            "Repair competes with client reads; which scheme hurts "
            "foreground traffic least?",
            rows,
            "HMBR interferes more *intensely* (it deliberately saturates "
            "both the center and the survivor uplinks at once) but for the "
            "shortest *window* — it finishes 2-3x sooner, so the total "
            "disruption is smallest. The weighted-fair throttled variant "
            "(repair flows at 1/4 of a client flow's share) nearly removes "
            "the read stretch at almost no repair-time cost.",
        )
    )

    stamp = datetime.date.today().isoformat()
    header = (
        "# EXPERIMENTS — paper vs. reproduction\n\n"
        "Generated by `python -m repro.experiments.report` "
        f"on {stamp}. Every table below is produced by the code in "
        "`src/repro/experiments/`; the same harnesses back the test suite "
        "and the benchmark targets (see DESIGN.md for the index).\n\n"
        "Absolute seconds are not expected to match the paper (our network "
        "is a fluid simulator calibrated to a 200 MB/s fastest node, not "
        "the authors' EC2 tenancy); the claims checked are the *shapes*: "
        "who wins, by roughly what factor, and where crossovers fall.\n"
    )
    return header + "\n" + "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """Regenerate ``EXPERIMENTS.md`` in the working directory, or check it."""
    parser = argparse.ArgumentParser(prog="python -m repro.experiments.report")
    parser.add_argument("--check", action="store_true", help="exit 1 if the file is stale")
    if not parser.parse_args(argv).check:
        out = generate()
        print(f"wrote {out} ({out.stat().st_size} bytes)")
        return 0
    old, new = (
        [line for line in text.splitlines(True) if not line.startswith("Generated by")]
        for text in (Path("EXPERIMENTS.md").read_text(), _render())
    )
    print("".join(difflib.unified_diff(old, new, "EXPERIMENTS.md", "regenerated")), end="")
    return int(old != new)


if __name__ == "__main__":
    raise SystemExit(main())
