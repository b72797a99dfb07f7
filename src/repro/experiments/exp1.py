"""Experiment 1 (Figure 8): repair time of CR / IR / HMBR vs (k, m, f) per WLD.

The paper's headline comparison: under the 8x bandwidth gap at
(k, m, f) = (64, 8, 8), HMBR cuts the repair time by up to ~57% vs CR and
~65% vs IR; under the 2x gap IR beats CR, and the gap widening flips them.
"""

from __future__ import annotations

from repro.cluster.bandwidth import WLD_PRESETS
from repro.experiments.common import averaged_transfer_time, format_table

#: The (k, m, f) points plotted in Figure 8.
DEFAULT_GRID = [(6, 3, 2), (9, 3, 3), (12, 4, 4), (32, 8, 8), (64, 8, 8), (64, 16, 16)]
SCHEMES = ["cr", "ir", "hmbr"]


def run(
    grid: list[tuple[int, int, int]] | None = None,
    wlds: list[str] | None = None,
    seeds: tuple[int, ...] = (2023, 2024, 2025),
    block_size_mb: float = 64.0,
) -> list[dict]:
    grid = grid or DEFAULT_GRID
    wlds = wlds or list(WLD_PRESETS)
    rows = []
    for wld in wlds:
        for k, m, f in grid:
            row: dict = {"wld": wld, "(k,m,f)": f"({k},{m},{f})"}
            for scheme in SCHEMES:
                row[scheme] = averaged_transfer_time(
                    k, m, f, scheme, wld, seeds=seeds, block_size_mb=block_size_mb
                )
            row["hmbr_vs_cr_%"] = 100.0 * (1 - row["hmbr"] / row["cr"])
            row["hmbr_vs_ir_%"] = 100.0 * (1 - row["hmbr"] / row["ir"])
            rows.append(row)
    return rows


def main() -> None:
    rows = run()
    print("Experiment 1 (Fig. 8) — repair transfer time [s] vs (k,m,f) per workload")
    print(format_table(rows, floatfmt=".2f"))
    best_cr = max(r["hmbr_vs_cr_%"] for r in rows)
    best_ir = max(r["hmbr_vs_ir_%"] for r in rows)
    print(f"\nmax reduction vs CR: {best_cr:.1f}%   max reduction vs IR: {best_ir:.1f}%")
    print("paper: up to 57.5% vs CR and 64.8% vs IR at (64,8,8) under WLD-8x")


if __name__ == "__main__":
    main()
