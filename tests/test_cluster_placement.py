"""Placement policy tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import place_stripes_random
from repro.cluster.topology import Cluster


def test_random_stripe_nodes_distinct():
    cl = Cluster.homogeneous(20, 100)
    (stripe,) = place_stripes_random(cl, 1, 6, 3, rng=np.random.default_rng(0))
    assert len(stripe.placement) == 9
    assert len(set(stripe.placement)) == 9
    with pytest.raises(ValueError):
        place_stripes_random(cl, 1, 3, 1, rng=0, candidates=[1, 2, 3])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
def test_random_placement_property(k, m, seed):
    cl = Cluster.homogeneous(30, 100)
    layout = place_stripes_random(cl, 5, k, m, rng=seed)
    for stripe in layout:
        assert len(set(stripe.placement)) == k + m
        assert all(0 <= n < 30 for n in stripe.placement)


def test_random_placement_skips_dead_nodes():
    cl = Cluster.homogeneous(12, 100)
    cl.fail_nodes(range(6))
    layout = place_stripes_random(cl, 10, 3, 2, rng=0)
    for stripe in layout:
        assert all(n >= 6 for n in stripe.placement)


def test_random_placement_candidate_restriction():
    cl = Cluster.homogeneous(20, 100)
    layout = place_stripes_random(cl, 10, 3, 2, rng=0, candidates=list(range(10)))
    for stripe in layout:
        assert all(n < 10 for n in stripe.placement)

