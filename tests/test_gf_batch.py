"""Property/differential tests for the batched GF kernels.

Everything here checks one claim from `repro.gf.batch`'s contract: the
stacked kernels are *bit-exact* with the reference per-stripe matmul of
`repro.gf.matrix` over every field, shape, and coefficient mix — they only
change how fast the same arithmetic runs.  Sampling is seeded-random (no
extra dependencies); a failing parametrization names its seed.
"""

import numpy as np
import pytest

import repro.gf.batch as batch_mod
from repro.gf import GF, gf_matmul, gf_plane_matmul

scale_lut = batch_mod._scale_lut


def lut_cache_clear():
    with batch_mod._LUT_CACHE_LOCK:
        batch_mod._LUT_CACHE.clear()


def batch_matmul(mat, stacked, field):
    """``mat @ stacked[s]`` for every stripe of an (S, k, B) stack, as the
    one plane product of the stripes laid side by side."""
    s, k, b = stacked.shape
    out = gf_plane_matmul(mat, stacked.transpose(1, 0, 2).reshape(k, s * b), field)
    return out.reshape(-1, s, b).transpose(1, 0, 2)

SEEDS = [int(s) for s in np.random.SeedSequence(1202).generate_state(8)]


def random_case(rng, field):
    """One random (mat, plane) pair with degenerate coefficients mixed in."""
    f = int(rng.integers(1, 6))
    k = int(rng.integers(1, 12))
    n = int(rng.integers(1, 5000))
    mat = rng.integers(0, field.size, size=(f, k)).astype(field.dtype)
    # force the special-cased coefficients into every sample
    mat.flat[rng.integers(0, mat.size)] = 0
    mat.flat[rng.integers(0, mat.size)] = 1
    plane = rng.integers(0, field.size, size=(k, n)).astype(field.dtype)
    return mat, plane


@pytest.mark.parametrize("w", [4, 8, 16])
@pytest.mark.parametrize("seed", SEEDS)
def test_plane_matmul_matches_reference(w, seed):
    field = GF(w)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        mat, plane = random_case(rng, field)
        assert np.array_equal(
            gf_plane_matmul(mat, plane, field), gf_matmul(mat, plane, field)
        )


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 1023, 1024, 1025])
def test_plane_matmul_odd_and_even_lengths(w, n):
    """The pair-byte path splits n into a uint16 body + 1-byte tail."""
    field = GF(w)
    rng = np.random.default_rng(n)
    mat = rng.integers(0, field.size, size=(3, 4)).astype(field.dtype)
    plane = rng.integers(0, field.size, size=(4, n)).astype(field.dtype)
    assert np.array_equal(
        gf_plane_matmul(mat, plane, field), gf_matmul(mat, plane, field)
    )


def test_plane_matmul_empty_plane():
    field = GF(8)
    mat = np.ones((2, 3), dtype=np.uint8)
    out = gf_plane_matmul(mat, np.empty((3, 0), dtype=np.uint8), field)
    assert out.shape == (2, 0)


def test_plane_matmul_rejects_shape_mismatch():
    field = GF(8)
    with pytest.raises(ValueError):
        gf_plane_matmul(
            np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8), field
        )


def test_plane_matmul_noncontiguous_input():
    """Sliced (strided) planes must not change results."""
    field = GF(8)
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 256, size=(2, 4)).astype(np.uint8)
    big = rng.integers(0, 256, size=(4, 2000)).astype(np.uint8)
    view = big[:, ::2]
    assert np.array_equal(
        gf_plane_matmul(mat, view, field), gf_matmul(mat, np.ascontiguousarray(view), field)
    )


@pytest.mark.parametrize("w", [4, 8])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 1023, 1024])
def test_plane_matmul_bytewise_fallback_matches(monkeypatch, w, n):
    """Regression (ISSUE 9): the pair-byte fast path reinterprets byte
    pairs as host uint16 words, which silently assumed little-endian.
    Forcing the ``_PAIR_VIEW_OK`` gate off takes the bytewise fallback a
    big-endian host would take — it must be bit-exact with both the
    reference and the fast path."""
    import repro.gf.batch as batch_mod

    field = GF(w)
    rng = np.random.default_rng(n + w)
    mat = rng.integers(0, field.size, size=(3, 5)).astype(field.dtype)
    mat.flat[0] = 0
    mat.flat[1] = 1
    plane = rng.integers(0, field.size, size=(5, n)).astype(field.dtype)
    fast = gf_plane_matmul(mat, plane, field)
    monkeypatch.setattr(batch_mod, "_PAIR_VIEW_OK", False)
    slow = gf_plane_matmul(mat, plane, field)
    assert np.array_equal(slow, fast)
    assert np.array_equal(slow, gf_matmul(mat, plane, field))


def test_pair_view_gate_matches_host_byteorder():
    import sys

    import repro.gf.batch as batch_mod

    assert batch_mod._PAIR_VIEW_OK == (sys.byteorder == "little")


def test_pair_lut8_packing_is_explicitly_little_endian():
    """lut[(hi << 8) | lo] == (c*hi) << 8 | (c*lo) — the documented packing
    the uint16 view relies on (and the reason the gate exists)."""
    field = GF(8)
    c = 131
    lut = scale_lut(field, c)
    for lo, hi in [(0, 0), (1, 255), (254, 1), (77, 200)]:
        packed = int(lut[(hi << 8) | lo])
        assert packed == (field.mul(c, hi) << 8) | field.mul(c, lo)


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_batch_matmul_matches_per_stripe(w, seed):
    field = GF(w)
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 8))
    f, k, b = int(rng.integers(1, 5)), int(rng.integers(1, 10)), int(rng.integers(1, 3000))
    mat = rng.integers(0, field.size, size=(f, k)).astype(field.dtype)
    stacked = rng.integers(0, field.size, size=(s, k, b)).astype(field.dtype)
    out = batch_matmul(mat, stacked, field)
    assert out.shape == (s, f, b)
    for i in range(s):
        assert np.array_equal(out[i], gf_matmul(mat, stacked[i], field))


def test_batch_matmul_single_stripe_degenerate():
    """S = 1 batches are the degenerate case and must stay exact."""
    field = GF(8)
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 256, size=(2, 3)).astype(np.uint8)
    stacked = rng.integers(0, 256, size=(1, 3, 517)).astype(np.uint8)
    out = batch_matmul(mat, stacked, field)
    assert np.array_equal(out[0], gf_matmul(mat, stacked[0], field))


@pytest.mark.parametrize("w", [8, 16])
def test_scale_lut_is_memoized_and_readonly(w):
    field = GF(w)
    lut_cache_clear()
    a = scale_lut(field, 7)
    b = scale_lut(field, 7)
    assert a is b
    assert not a.flags.writeable
    lut_cache_clear()
    assert scale_lut(field, 7) is not a  # rebuilt after clear, same values
    assert np.array_equal(scale_lut(field, 7), a)


def test_scale_lut_rejects_bad_coefficients():
    field = GF(8)
    with pytest.raises(ValueError):
        scale_lut(field, 0)
    with pytest.raises(ValueError):
        scale_lut(field, field.size)


def test_scale_lut_pair_semantics():
    """w=8 tables map packed byte pairs: lut[(hi<<8)|lo] = (c*hi)<<8 | (c*lo)."""
    field = GF(8)
    c = 29
    lut = scale_lut(field, c)
    rng = np.random.default_rng(9)
    for _ in range(100):
        lo, hi = int(rng.integers(0, 256)), int(rng.integers(0, 256))
        packed = int(lut[(hi << 8) | lo])
        assert packed & 0xFF == field.mul(c, lo)
        assert packed >> 8 == field.mul(c, hi)


def test_scale_lut_word_semantics():
    """w=16 tables map single field elements, matching field.scale."""
    field = GF(16)
    c = 40000 % field.size
    lut = scale_lut(field, c)
    rng = np.random.default_rng(10)
    xs = rng.integers(0, field.size, size=256).astype(field.dtype)
    assert np.array_equal(lut[xs], field.scale(c, xs))
