"""GF matrix algebra tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.field import GF, gf8
from repro.gf.matrix import (
    SingularMatrixError,
    gf_identity,
    gf_inv,
    gf_matmul,
    gf_rank,
)


def random_matrix(rng, rows, cols):
    return rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)


def random_invertible(rng, n, field=gf8):
    while True:
        m = rng.integers(0, field.size, size=(n, n)).astype(field.dtype)
        if gf_rank(m, field) == n:
            return m


def test_identity_is_neutral():
    rng = np.random.default_rng(0)
    a = random_matrix(rng, 5, 5)
    eye = gf_identity(5, gf8)
    assert np.array_equal(gf_matmul(a, eye, gf8), a)
    assert np.array_equal(gf_matmul(eye, a, gf8), a)


def test_matmul_shape_validation():
    with pytest.raises(ValueError):
        gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8), gf8)


def test_matmul_matches_scalar_definition():
    rng = np.random.default_rng(1)
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 4, 2)
    c = gf_matmul(a, b, gf8)
    for i in range(3):
        for j in range(2):
            acc = 0
            for t in range(4):
                acc ^= gf8.mul(int(a[i, t]), int(b[t, j]))
            assert c[i, j] == acc


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_inverse_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    m = random_invertible(rng, n)
    inv = gf_inv(m, gf8)
    assert np.array_equal(gf_matmul(m, inv, gf8), gf_identity(n, gf8))
    assert np.array_equal(gf_matmul(inv, m, gf8), gf_identity(n, gf8))


def test_singular_matrix_raises():
    m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(SingularMatrixError):
        gf_inv(m, gf8)


def test_non_square_inverse_rejected():
    with pytest.raises(ValueError):
        gf_inv(np.zeros((2, 3), dtype=np.uint8), gf8)


def test_rank_properties():
    rng = np.random.default_rng(3)
    assert gf_rank(gf_identity(7, gf8), gf8) == 7
    m = random_invertible(rng, 5)
    assert gf_rank(m, gf8) == 5
    # duplicate a row -> rank drops
    m2 = m.copy()
    m2[4] = m2[0]
    assert gf_rank(m2, gf8) == 4
    assert gf_rank(np.zeros((3, 5), dtype=np.uint8), gf8) == 0


def test_rank_of_rectangular():
    rng = np.random.default_rng(4)
    tall = random_matrix(rng, 8, 3)
    assert gf_rank(tall, gf8) <= 3


def test_gf16_matrix_roundtrip():
    f = GF(16)
    rng = np.random.default_rng(5)
    m = random_invertible(rng, 4, f)
    inv = gf_inv(m, f)
    assert np.array_equal(gf_matmul(m, inv, f), gf_identity(4, f))
