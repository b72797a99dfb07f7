"""Bandwidth workload (WLD) dataset tests."""

import numpy as np
import pytest

from repro.cluster.bandwidth import (
    BASE_MAX_BANDWIDTH,
    WLD_PRESETS,
    BandwidthDataset,
    make_wld,
)


@pytest.mark.parametrize("preset,gap", sorted(WLD_PRESETS.items()))
def test_presets_have_exact_gap(preset, gap):
    ds = make_wld(80, preset, seed=1)
    assert ds.name == preset
    assert ds.uplinks.max() == pytest.approx(BASE_MAX_BANDWIDTH)
    assert ds.uplinks.min() == pytest.approx(BASE_MAX_BANDWIDTH / gap)
    assert ds.measured_gap == pytest.approx(gap)


def test_numeric_gap_accepted():
    ds = make_wld(40, 3.0, seed=2)
    assert ds.gap == 3.0
    assert ds.name == "WLD-3x"


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        make_wld(10, "WLD-99x")
    with pytest.raises(ValueError):
        make_wld(10, 0.5)


def test_deterministic_by_seed():
    a = make_wld(50, "WLD-4x", seed=5)
    b = make_wld(50, "WLD-4x", seed=5)
    c = make_wld(50, "WLD-4x", seed=6)
    assert np.array_equal(a.uplinks, b.uplinks)
    assert not np.array_equal(a.uplinks, c.uplinks)


def test_symmetric_option():
    ds = make_wld(30, "WLD-2x", seed=3, symmetric=True)
    assert np.array_equal(ds.uplinks, ds.downlinks)
    ds2 = make_wld(30, "WLD-2x", seed=3, symmetric=False)
    assert not np.array_equal(ds2.uplinks, ds2.downlinks)


@pytest.mark.parametrize("dist", ["normal", "uniform", "zipf"])
def test_distribution_families(dist):
    ds = make_wld(100, "WLD-8x", distribution=dist, seed=4)
    assert len(ds) == 100
    assert ds.uplinks.min() == pytest.approx(25.0)
    assert ds.uplinks.max() == pytest.approx(200.0)


def test_zipf_is_skewed_low():
    """Zipf should put most nodes near the slow end (heavier low tail)."""
    ds = make_wld(500, "WLD-8x", distribution="zipf", seed=5)
    median = np.median(ds.uplinks)
    mean_range = (ds.uplinks.min() + ds.uplinks.max()) / 2
    assert median < mean_range


def test_unknown_distribution():
    with pytest.raises(ValueError):
        make_wld(10, "WLD-2x", distribution="pareto")


def test_single_node_dataset():
    ds = make_wld(1, "WLD-2x")
    assert len(ds) == 1
    assert 100.0 <= ds.uplinks[0] <= 200.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        BandwidthDataset("x", np.array([1.0, 2.0]), np.array([1.0]), 2, "normal", 0)
    with pytest.raises(ValueError):
        BandwidthDataset("x", np.array([0.0]), np.array([1.0]), 2, "normal", 0)

