"""MDS property tests for the generator-matrix constructions."""

import itertools

import numpy as np
import pytest

from repro.ec.matrices import (
    cauchy_parity_matrix,
    systematic_cauchy_generator,
    systematic_vandermonde_generator,
    _vandermonde_matrix,
)
from repro.gf.field import GF, gf8
from repro.gf.matrix import gf_identity, gf_rank


def test_vandermonde_shape_and_first_column():
    v = _vandermonde_matrix(9, 6)
    assert v.shape == (9, 6)
    assert (v[:, 0] == 1).all()
    # row i is powers of i
    assert v[2, 1] == 2 and v[2, 2] == 4
    assert v[0, 1] == 0  # 0^1 = 0


def test_vandermonde_any_k_rows_invertible():
    k = 4
    v = _vandermonde_matrix(8, k)
    for rows in itertools.combinations(range(8), k):
        assert gf_rank(v[list(rows)], gf8) == k


def test_cauchy_all_entries_nonzero():
    c = cauchy_parity_matrix(6, 3)
    assert (c != 0).all()
    assert c.shape == (3, 6)


@pytest.mark.parametrize("maker", [systematic_cauchy_generator, systematic_vandermonde_generator])
@pytest.mark.parametrize("k,m", [(3, 2), (4, 3), (6, 3)])
def test_generator_is_systematic_and_mds_exhaustive(maker, k, m):
    """Every k-row submatrix of the generator must be invertible."""
    g = maker(k, m)
    assert np.array_equal(g[:k], gf_identity(k, gf8))
    for rows in itertools.combinations(range(k + m), k):
        assert gf_rank(g[list(rows)], gf8) == k, rows


@pytest.mark.parametrize("maker", [systematic_cauchy_generator, systematic_vandermonde_generator])
def test_generator_mds_random_subsets_wide(maker):
    """Spot-check MDS for a wide stripe (exhaustive is combinatorial)."""
    k, m = 64, 16
    g = maker(k, m)
    rng = np.random.default_rng(0)
    for _ in range(25):
        rows = rng.choice(k + m, size=k, replace=False)
        assert gf_rank(g[rows], gf8) == k


def test_vast_wide_stripe_fits_gf8():
    g = systematic_cauchy_generator(150, 4)
    assert g.shape == (154, 150)


def test_field_size_limits():
    with pytest.raises(ValueError):
        systematic_cauchy_generator(250, 10)
    with pytest.raises(ValueError):
        systematic_vandermonde_generator(250, 10)
    with pytest.raises(ValueError):
        _vandermonde_matrix(300, 4)
    # but fine in GF(2^16)
    g = systematic_cauchy_generator(250, 10, GF(16))
    assert g.shape == (260, 250)
