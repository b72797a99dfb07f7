"""OU bandwidth-trace tests (vectorized paths + NetworkTrace facade)."""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.timeseries import ou_path, ou_paths
from repro.cluster.topology import Cluster
from repro.simnet.flows import Flow
from repro.simnet.fluid import FluidSimulator
from repro.simnet.network import NetworkTrace


def _ou_path_scalar_reference(base, duration_s, step_s, sigma, theta, rng,
                              floor_fraction=0.1):
    """The historical one-value-at-a-time loop, kept inline as the pin.

    ``ou_paths`` must reproduce this bit for bit on the same seed: the
    vectorized recurrence performs the identical element-wise IEEE
    operations, and a single-row batch consumes the generator stream in
    the same order as this loop.
    """
    n = int(np.ceil(duration_s / step_s)) + 1
    x = np.empty(n)
    x[0] = base
    sq = np.sqrt(step_s)
    noise = rng.normal(0.0, 1.0, size=(1, n - 1))
    for i in range(1, n):
        drift = theta * (base - x[i - 1]) * step_s
        x[i] = x[i - 1] + drift + sigma * sq * noise[0, i - 1]
    return np.maximum(x, floor_fraction * base)


def test_ou_path_bit_exact_vs_scalar_loop():
    """Vectorized ou_path equals the historical scalar loop bit for bit."""
    for seed in (0, 7, 123):
        got = ou_path(100.0, duration_s=50.0, step_s=0.5, sigma=12.0,
                      theta=0.4, rng=np.random.default_rng(seed))
        want = _ou_path_scalar_reference(100.0, 50.0, 0.5, 12.0, 0.4,
                                         np.random.default_rng(seed))
        assert got.shape == want.shape
        assert np.array_equal(got, want)  # bitwise, not approx


def test_ou_paths_batch_rows_are_independent_of_batching():
    """A 1-row batch and a multi-row batch agree on the draws they share.

    Noise is drawn in one row-major block, so row 0 of any batch consumes
    the same leading stream slice as a single-path call on the same seed.
    """
    single = ou_paths(np.array([100.0]), 20.0, 1.0, np.array([10.0]), 0.5,
                      np.random.default_rng(9))
    batch = ou_paths(np.array([100.0, 80.0]), 20.0, 1.0,
                     np.array([10.0, 8.0]), 0.5, np.random.default_rng(9))
    assert np.array_equal(single[0], batch[0])


def test_ou_path_statistics():
    rng = np.random.default_rng(0)
    path = ou_path(100.0, duration_s=500.0, step_s=1.0, sigma=10.0, theta=0.5, rng=rng)
    assert path[0] == 100.0
    # mean reversion: long-run average near the base
    assert np.mean(path) == pytest.approx(100.0, rel=0.1)
    # floored away from zero
    assert path.min() >= 10.0
    with pytest.raises(ValueError):
        ou_path(100.0, -1.0, 1.0, 1.0, 0.5, rng)


def test_ou_path_zero_sigma_is_constant():
    rng = np.random.default_rng(1)
    path = ou_path(50.0, 10.0, 1.0, sigma=0.0, theta=0.5, rng=rng)
    assert np.allclose(path, 50.0)


def test_trace_events_structure():
    cl = Cluster([Node(0, 100, 100), Node(1, 80, 120)])
    events = NetworkTrace.ou(5.0, step_s=1.0, seed=2).events_for(cl)
    assert len(events) == 2 * 5
    assert all(e.time > 0 for e in events)
    times = [e.time for e in events]
    assert times == sorted(times)
    assert all(e.uplink > 0 and e.downlink > 0 for e in events)


def test_trace_restricted_to_nodes():
    cl = Cluster([Node(i, 100, 100) for i in range(4)])
    events = NetworkTrace.ou(3.0, nodes=[1, 2], seed=3).events_for(cl)
    assert {e.node for e in events} == {1, 2}


def test_simulation_under_churn_completes():
    """A repair-shaped transfer under OU churn still conserves bytes."""
    cl = Cluster([Node(i, 100, 100) for i in range(6)])
    events = NetworkTrace.ou(60.0, step_s=0.5, rel_sigma=0.3, seed=4).events_for(cl)
    flows = [Flow(f"f{i}", i, (i + 1) % 6, 48.0) for i in range(6)]
    res = FluidSimulator(cl).run(flows, events=events)
    assert res.makespan > 0
    assert sum(res.bytes_sent.values()) == pytest.approx(6 * 48.0)


def test_churn_changes_makespan_vs_static():
    cl = Cluster([Node(i, 100, 100) for i in range(4)])
    flows = [Flow("f", 0, 1, 200.0)]
    static = FluidSimulator(cl).run(flows).makespan
    events = NetworkTrace.ou(60.0, step_s=0.5, rel_sigma=0.4, seed=5).events_for(cl)
    churned = FluidSimulator(cl).run(flows, events=events).makespan
    assert churned != pytest.approx(static)
