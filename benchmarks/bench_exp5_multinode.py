"""Experiment 5 / Figure 12 bench: multi-node repair ± the LFS+LRS scheduler."""

from benchmarks.conftest import attach
from repro.experiments.exp5 import run as run_exp5


def test_exp5_multinode_scheduling(benchmark):
    rows = benchmark.pedantic(
        run_exp5,
        kwargs={
            "cases": [(32, 8, 4), (64, 8, 8)],
            "seeds": (2023,),
            "n_stripes": 16,
        },
        rounds=1,
        iterations=1,
    )
    wide = next(r for r in rows if r["(k,m,f)"] == "(64,8,8)")
    # the scheduler must spread center load and pay off on wide stripes
    assert wide["max_center_load_enh"] <= wide["max_center_load_base"]
    assert wide["reduction_%"] > 5.0
    attach(
        benchmark,
        wide_reduction_pct=wide["reduction_%"],
        paper_mean_pct=10.9,
        paper_max_pct=15.9,
    )
