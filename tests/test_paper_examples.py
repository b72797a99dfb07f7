"""Worked examples from the paper, pinned end-to-end.

These tests are the reproduction's anchor: each checks a number or claim the
paper states explicitly, using the public API the way a reader would.
"""

import numpy as np
import pytest

from repro.ec.rs import RSCode
from repro.gf.field import gf8
from repro.repair.centralized import plan_centralized
from repro.repair.hybrid import plan_hybrid
from repro.repair.independent import plan_independent
from repro.repair.model import repair_model
from repro.simnet.fluid import FluidSimulator


def test_fig2_code_equations():
    """Figure 2 defines P1 = D1 + D2 + D3 and P2 = D1 + 3 D2 + 9 D3.

    Our default construction differs (Cauchy), but an equivalent generator
    exists in GF(2^8): build it manually and check MDS decoding of the
    figure's loss pattern (D1 and P2)."""
    # generator rows: I3, [1,1,1], [1,3,9]  (GF(2^8): 9 = 3*3 since 3*3 = x+1 squared... verify via field)
    g_parity = np.array([[1, 1, 1], [1, 3, gf8.mul(3, 3)]], dtype=np.uint8)
    rng = np.random.default_rng(0)
    d = rng.integers(0, 256, size=(3, 128), dtype=np.uint8)
    p1 = d[0] ^ d[1] ^ d[2]
    p2 = d[0] ^ gf8.scale(3, d[1]) ^ gf8.scale(int(g_parity[1, 2]), d[2])
    # lose D1 and P2; recover D1 = P1 + D2 + D3 (XOR) as the paper writes
    d1 = p1 ^ d[1] ^ d[2]
    assert np.array_equal(d1, d[0])
    # recover P2 = D1 + 3 D2 + 9 D3 after D1 is back
    p2_again = d1 ^ gf8.scale(3, d[1]) ^ gf8.scale(int(g_parity[1, 2]), d[2])
    assert np.array_equal(p2_again, p2)


def test_fig2a_centralized_download_time(fig2):
    """§II-C: t1 = 64MB x 3 / 1000MB/s = 0.192 s."""
    plan = plan_centralized(fig2)
    res = FluidSimulator(fig2.cluster).run(plan.tasks)
    fetch_finish = max(
        t for tid, t in res.finish_times.items() if ":fetch:" in tid
    )
    assert fetch_finish == pytest.approx(0.192)


def test_fig2b_independent_time(fig2):
    """§II-D: t2 = 64MB x 2 / 640MB/s = 0.20 s."""
    plan = plan_independent(fig2)
    res = FluidSimulator(fig2.cluster).run(plan.tasks)
    assert res.makespan == pytest.approx(0.20)


def test_fig2c_hybrid_halves_bottlenecks(fig2):
    """§II-E with p = 1/2: the slowest-uplink node now moves 3 sub-blocks.

    The paper computes t2 = 32MB x 3 / 640MB/s = 0.15 s for N4; our fluid
    simulation of the p = 0.5 hybrid must beat both pure schemes."""
    sim = FluidSimulator(fig2.cluster)
    t_hybrid_half = sim.run(plan_hybrid(fig2, p=0.5).tasks).makespan
    assert t_hybrid_half < 0.20  # better than IR
    # and the volume of data the slowest node uploads matches the example
    plan = plan_hybrid(fig2, p=0.5)
    n4_upload = sum(
        t.size_mb
        for t in plan.tasks
        for (src, _dst) in t.hops
        if src == 3
    )
    assert n4_upload == pytest.approx(32.0 * 3)  # 3 sub-blocks of 32 MB


def test_theorem1_optimal_split_beats_paper_example(fig2):
    """The optimal p0 must be at least as good as the paper's p = 1/2."""
    model = repair_model(fig2)
    assert model.t(model.p0) <= model.t(0.5)


def test_mds_property_statement():
    """Property 1: any k of k+m blocks decode any block."""
    code = RSCode(3, 2)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=(3, 64), dtype=np.uint8)
    stripe = code.encode_stripe(data)
    import itertools

    for keep in itertools.combinations(range(5), 3):
        rebuilt = code.decode_stripe({i: stripe[i] for i in keep})
        assert np.array_equal(rebuilt, stripe)


def test_property2_linearity_of_repair():
    """Property 2: single-block repair = sum of k scaled survivor blocks,
    computable in any association order (what pipelining relies on)."""
    code = RSCode(4, 2)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 256, size=(4, 64), dtype=np.uint8)
    stripe = code.encode_stripe(data)
    survivors = [0, 1, 3, 5]
    r = np.asarray(code.repair_matrix(survivors, [2]))[0]
    # left-to-right accumulation (the pipeline order)
    acc = np.zeros(64, dtype=np.uint8)
    for coeff, b in zip(r, survivors):
        gf8.addmul(acc, int(coeff), stripe[b])
    assert np.array_equal(acc, stripe[2])


def test_property3_word_granularity():
    """Property 3: decoding sub-blocks independently equals decoding whole
    blocks (same offsets decode together)."""
    from repro.ec.subblock import word_slice

    code = RSCode(4, 2)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=(4, 128), dtype=np.uint8)
    stripe = code.encode_stripe(data)
    p = 0.3
    upper = {i: word_slice(stripe[i], 0, p) for i in range(6)}
    lower = {i: word_slice(stripe[i], p, 1) for i in range(6)}
    up_dec = code.decode({i: upper[i] for i in [1, 2, 3, 4]}, [0])[0]
    low_dec = code.decode({i: lower[i] for i in [1, 2, 3, 4]}, [0])[0]
    assert np.array_equal(np.concatenate([up_dec, low_dec]), stripe[0])


def test_paper_headline_reduction_at_64_8_8():
    """Experiment 1's headline: large reductions at (64,8,8) under WLD-8x.

    The paper reports 57.5% vs CR and 64.8% vs IR on EC2; we assert the
    reproduction achieves at least 30% against both (shape, not absolute)."""
    from repro.experiments.common import build_scenario, transfer_time

    sc = build_scenario(64, 8, 8, wld="WLD-8x", seed=2023)
    t_cr = transfer_time(sc.ctx, "cr")
    t_ir = transfer_time(sc.ctx, "ir")
    t_h = transfer_time(sc.ctx, "hmbr")
    assert 1 - t_h / t_cr > 0.30
    assert 1 - t_h / t_ir > 0.30
