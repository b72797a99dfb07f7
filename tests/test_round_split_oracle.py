"""The round-split LP solver against scipy's HiGHS.

:func:`repro.repair.split.min_max` is numpy only, so that planning never
imports scipy; here ``scipy.optimize.linprog(method="highs")`` is its
oracle, on drawn LPs and on the volume rows of real rounds.  Skipped where
scipy is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repair.split import _volume_rows, min_max
from repro.simnet.fluid import FluidSimulator
from tests.test_round_split import WLDS, _merged_whole_block, _round

linprog = pytest.importorskip("scipy.optimize").linprog


def _highs(c, a) -> float:
    """min T subject to c + a @ x <= T and 0 <= x <= 1, by HiGHS."""
    rows, cols = a.shape
    res = linprog(
        np.r_[np.zeros(cols), 1.0],
        A_ub=np.hstack([a, -np.ones((rows, 1))]), b_ub=-c,
        bounds=[(0.0, 1.0)] * cols + [(None, None)], method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _agrees(c, a) -> None:
    x, t = min_max(c, a)
    assert ((0.0 <= x) & (x <= 1.0)).all()
    want = _highs(c, a)
    assert t == pytest.approx(want, rel=1e-6, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=60),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_min_max_matches_highs_on_drawn_lps(rows, cols, identical, seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 5.0, rows)
    a = rng.normal(0.0, 1.0, (rows, cols))
    if identical:
        a[:] = a[:, :1]
    _agrees(c, a)


def _round_rows(rnd, cluster):
    cr_all, ir_all, stripe_of = _merged_whole_block(rnd)
    problem = FluidSimulator(cluster).compile(cr_all + ir_all)
    return _volume_rows(problem, np.arange(len(problem)) < len(cr_all), np.array(stripe_of))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=40),
    st.sampled_from(WLDS),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_min_max_matches_highs_on_drawn_rounds(k, m, n_stripes, wld, seed):
    cluster, rnd = _round(k, m, min(m, 1 + seed % m), n_stripes, wld, seed)
    if rnd.split is None:
        return
    c, a = _round_rows(rnd, cluster)
    _agrees(c, a)
    _agrees(c, a.sum(axis=1, keepdims=True))  # L, the common split's bound


@pytest.mark.parametrize("stripes", [16, 64, 256])
def test_min_max_matches_highs_on_the_plan_storm_rounds(stripes):
    """The volume LP of RS(32, 8) on 60 WLD-4x nodes with 4 dead; HiGHS
    reads 24.21 / 85.84 / 321.15 s."""
    from benchmarks.e2e.workloads import _WIDE, build_system

    sz = dict(_WIDE, stripes=stripes)
    coord = build_system(sz)
    coord.place_stripes(stripes, materialize=False)
    for node in range(sz["dead"]):
        coord.crash_node(node)
    affected = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
    rnd = coord.plan_round("hmbr", affected)
    _agrees(*_round_rows(rnd, coord.cluster))
