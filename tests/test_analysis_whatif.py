"""Capacity-planning (what-if) tests."""

import pytest

from repro.analysis.whatif import _max_width_under_slo, _repair_time_at_width, slo_table


def test_repair_time_trend_in_k():
    """The multi-seed mean grows with width (individual draws may jitter)."""
    times = [_repair_time_at_width(k, 4, 2, "cr") for k in (4, 16, 64)]
    assert times[0] < times[1] < times[2]


def test_scan_finds_largest_feasible_width():
    slo = _repair_time_at_width(16, 4, 2, "cr") * 1.001
    plan = _max_width_under_slo(slo, 4, 2, "cr", k_min=4, k_max=32, k_step=4)
    assert plan.feasible
    assert plan.max_k >= 16
    assert plan.repair_s_at_max <= slo
    assert plan.redundancy == pytest.approx((plan.max_k + 4) / plan.max_k)


def test_infeasible_slo():
    plan = _max_width_under_slo(1e-6, 4, 2, "cr", k_max=8)
    assert not plan.feasible
    assert plan.max_k == 0


def test_unbounded_slo_hits_k_max():
    plan = _max_width_under_slo(1e9, 4, 2, "ir", k_max=24, k_step=5)
    assert plan.max_k == 24  # k_max always included even off-grid


def test_validation():
    with pytest.raises(ValueError):
        _max_width_under_slo(-1.0, 4, 2, "cr")
    with pytest.raises(ValueError):
        _max_width_under_slo(1.0, 2, 3, "cr")
    with pytest.raises(ValueError):
        _max_width_under_slo(1.0, 4, 2, "cr", k_step=0)


def test_hmbr_supports_widest_stripes():
    """The paper's pitch, inverted: faster repair buys wider (cheaper)
    stripes under the same repair-time budget."""
    slo = _repair_time_at_width(24, 4, 4, "hmbr", seeds=(2023,)) * 1.01
    rows = slo_table(slo, 4, 4, k_min=4, k_max=48, k_step=4, seeds=(2023,))
    by = {r["scheme"]: r for r in rows}
    assert by["hmbr"]["max_k"] >= by["cr"]["max_k"]
    assert by["hmbr"]["max_k"] >= by["ir"]["max_k"]
    assert by["hmbr"]["redundancy_x"] <= by["cr"]["redundancy_x"]
