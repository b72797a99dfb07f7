"""The paper's claims as tier-1 checks, over the experiments' own outputs.

The goldens pin each experiment's *values*, and a change that moves a
planning decision re-pins them on purpose.  These tests pin the *shape*
the paper claims, with the bounds of the matching ``benchmarks/bench_*.py``
checks kept verbatim, so a re-pin cannot silently lose a claim.
"""

from __future__ import annotations

import pytest

from repro.experiments.exp5 import run as run_exp5


@pytest.fixture(scope="module")
def exp5_rows():
    return run_exp5(cases=[(32, 8, 4), (64, 8, 8)], seeds=(2023,), n_stripes=16)


def test_exp5_scheduler_spreads_centers_and_pays_off_on_wide_stripes(exp5_rows):
    """Figure 12 (§IV-C): LFS + LRS spreads CR center load, and on the wide
    (64, 8, 8) case it cuts the multi-node makespan by more than 5%
    (``benchmarks/bench_exp5_multinode.py``)."""
    wide = next(r for r in exp5_rows if r["(k,m,f)"] == "(64,8,8)")
    assert wide["max_center_load_enh"] <= wide["max_center_load_base"]
    assert wide["reduction_%"] > 5.0
