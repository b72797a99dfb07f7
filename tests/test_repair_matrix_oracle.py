"""``RSCode.derive_repair_matrix`` against the full-inverse oracle.

The library inverts only the e x e core of erased data columns;
``tests/repair_matrix_reference.py`` keeps the derivation it replaced, which
inverted the whole k x k survivor matrix.  The inverse is unique and the
field arithmetic exact, so the two must agree with ``==`` — on every
(survivor set, failed set) of the small codes, on seeded random patterns of
the wide ones (survivors passed unsorted, straight to the derivation), and on
the error a singular survivor set raises.
"""

from itertools import chain, combinations

import numpy as np
import pytest

import repro.ec.rs as rs
from repro.ec.rs import RSCode
from repro.gf.field import GF
from repro.gf.matrix import SingularMatrixError
from tests.repair_matrix_reference import reference_repair_matrix

CONSTRUCTIONS = ("cauchy", "vandermonde")
SMALL = [(k, m) for k in range(1, 8) for m in range(1, 8) if k + m <= 8]


def _subsets(items):
    return chain.from_iterable(combinations(items, r) for r in range(1, len(items) + 1))


def _assert_same(code, survivors, failed, want=None):
    got = code.derive_repair_matrix(survivors, failed)
    if want is None:
        want = reference_repair_matrix(code, survivors, failed)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want), (code, survivors, failed)
    assert not got.flags.writeable


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_every_pattern_of_the_small_codes_gf8(construction):
    """Every survivor set and every non-empty failed set, k + m <= 8."""
    for k, m in SMALL:
        code = RSCode(k, m, GF(8), construction)
        for survivors in combinations(range(k + m), k):
            rest = [b for b in range(k + m) if b not in survivors]
            full = reference_repair_matrix(code, survivors, rest)
            for failed in _subsets(rest):
                _assert_same(code, survivors, failed, full[[rest.index(b) for b in failed]])


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_every_survivor_set_of_the_small_codes_gf16(construction):
    """GF(2^16), every survivor set: each failed block alone, and all of
    them in ascending and descending order — every row of every pattern."""
    for k, m in SMALL:
        code = RSCode(k, m, GF(16), construction)
        for survivors in combinations(range(k + m), k):
            rest = [b for b in range(k + m) if b not in survivors]
            full = reference_repair_matrix(code, survivors, rest)
            _assert_same(code, survivors, rest, full)
            _assert_same(code, survivors, rest[::-1], full[::-1])
            for j, b in enumerate(rest):
                _assert_same(code, survivors, [b], full[j : j + 1])


@pytest.mark.parametrize("k,m,patterns", [(32, 8, 100), (64, 16, 30), (128, 16, 10), (150, 4, 10)])
def test_seeded_wide_patterns_with_unsorted_survivors(k, m, patterns):
    code = RSCode(k, m)
    rng = np.random.default_rng(k * 1000 + m)
    for p in range(patterns):
        lost = rng.choice(k + m, size=int(rng.integers(1, m + 1)), replace=False)
        alive = [b for b in range(k + m) if b not in set(lost.tolist())]
        survivors = rng.permutation(rng.choice(alive, size=k, replace=False)).tolist()
        failed = rng.permutation([b for b in range(k + m) if b not in survivors]).tolist()
        _assert_same(code, survivors, failed)
    # the extremes: no erased data column, and every parity standing in
    _assert_same(code, list(range(k))[::-1], list(range(k, k + m)))
    _assert_same(code, list(range(m, k + m)), list(range(m))[::-1])


def test_no_erased_data_column_means_no_inversion(monkeypatch):
    """With every data block surviving the derivation inverts nothing."""
    code = RSCode(6, 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("inverted a matrix with no erased data column")

    monkeypatch.setattr(rs, "gf_inv", forbidden)
    _assert_same(code, [5, 0, 4, 1, 3, 2], [8, 6])


@pytest.mark.parametrize("w", [8, 16])
def test_a_singular_erased_core_still_raises(w):
    """Two equal parity rows make C[P, E] singular for P = those two parities:
    the core derivation raises exactly where the full inverse does."""
    code = RSCode(4, 3, GF(w))
    patched = code.generator.copy()
    patched[5] = patched[4]
    code.generator = patched
    survivors, failed = [0, 2, 4, 5], [1, 3, 6]
    with pytest.raises(SingularMatrixError):
        reference_repair_matrix(code, survivors, failed)
    with pytest.raises(SingularMatrixError):
        code.derive_repair_matrix(survivors, failed)
    # a survivor set that avoids the duplicated row is still fine
    _assert_same(code, [0, 2, 4, 6], [1, 3, 5])
