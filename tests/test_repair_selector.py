"""Automatic scheme-selection tests."""

import pytest

from repro.repair.selector import choose_scheme
from repro.simnet.fluid import FluidSimulator
from tests.conftest import make_repair_ctx


def test_selector_returns_fastest_candidate():
    ctx = make_repair_ctx(k=16, m=4, f=2, block_size_mb=64.0)
    choice = choose_scheme(ctx)
    assert choice.scheme in choice.candidates
    assert choice.predicted_s == pytest.approx(min(choice.candidates.values()))
    # the returned plan really simulates to the predicted time
    t = FluidSimulator(ctx.cluster).run(choice.plan.tasks).makespan
    assert t == pytest.approx(choice.predicted_s)


def test_selector_multi_block_picks_hmbr_or_equal():
    """HMBR's searched split never loses, so it must win or tie."""
    ctx = make_repair_ctx(k=16, m=8, f=4, block_size_mb=64.0)
    choice = choose_scheme(ctx)
    assert choice.candidates["hmbr"] <= min(
        choice.candidates["cr"], choice.candidates["ir"]
    ) + 1e-9


def test_selector_single_block_candidates():
    ctx = make_repair_ctx(k=32, m=2, f=1, block_size_mb=64.0)
    choice = choose_scheme(ctx)
    assert set(choice.candidates) == {"star", "chain", "ppr", "hmbr"}
    # chain repair is the wide-stripe winner on uniform bandwidth
    assert choice.candidates["chain"] <= choice.candidates["star"]


def test_selector_includes_rack_variants_only_with_racks():
    flat = make_repair_ctx(k=8, m=4, f=2)
    racked = make_repair_ctx(k=8, m=4, f=2, rack_size=4, cross=25.0)
    assert "rack-hmbr" not in choose_scheme(flat).candidates
    assert "rack-hmbr" in choose_scheme(racked).candidates

