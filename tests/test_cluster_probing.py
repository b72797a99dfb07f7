"""Bandwidth probing / estimation / noise tests."""

import numpy as np
import pytest

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.probing import measure_bandwidths, noisy_cluster
from repro.cluster.topology import Cluster


def probe_cluster():
    nodes = [Node(0, 10_000.0, 10_000.0)]  # fast reference
    ds = make_wld(6, "WLD-4x", seed=5)
    nodes += [Node(i + 1, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(6)]
    return Cluster(nodes)


def test_probing_recovers_exact_bandwidths():
    cl = probe_cluster()
    measured = measure_bandwidths(cl, reference_node=0)
    for nid, (up, down) in measured.items():
        assert up == pytest.approx(cl[nid].uplink)
        assert down == pytest.approx(cl[nid].downlink)
    assert 0 not in measured


def test_probing_rejects_slow_reference():
    cl = Cluster([Node(0, 10.0, 10.0), Node(1, 100.0, 100.0)])
    with pytest.raises(ValueError):
        measure_bandwidths(cl, reference_node=0)


def test_noisy_cluster_statistics():
    cl = probe_cluster()
    rng = np.random.default_rng(0)
    noisy = noisy_cluster(cl, rel_error=0.2, rng=rng)
    ratios = [noisy[i].uplink / cl[i].uplink for i in cl.node_ids()]
    assert any(abs(r - 1) > 0.01 for r in ratios)  # actually perturbed
    assert all(r > 0 for r in ratios)
    zero = noisy_cluster(cl, rel_error=0.0)
    assert all(zero[i].uplink == pytest.approx(cl[i].uplink) for i in cl.node_ids())
    with pytest.raises(ValueError):
        noisy_cluster(cl, rel_error=-0.1)


def test_noisy_cluster_preserves_structure():
    cl = Cluster([Node(0, 100, 100, rack=0, cross_uplink=20), Node(1, 100, 100, rack=1)])
    cl.set_rack_trunk(0, 50.0)
    noisy = noisy_cluster(cl, 0.3, rng=1)
    assert noisy[0].rack == 0 and noisy[1].rack == 1
    assert noisy[0].cross_uplink is not None and noisy[1].cross_uplink is None
    assert noisy.rack_trunks == cl.rack_trunks


def test_sensitivity_harness_monotone_regret():
    from repro.experiments.sensitivity import run

    rows = run(k=8, m=4, f=2, errors=[0.0, 0.3], seeds=(2023,))
    assert rows[0]["regret_%"] == pytest.approx(0.0, abs=1e-6)
    assert rows[1]["regret_%"] >= -1e-6
