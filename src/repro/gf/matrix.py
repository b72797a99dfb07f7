"""Dense matrix algebra over GF(2^w).

Matrices are plain NumPy arrays with the field's dtype; all routines take the
field as an explicit argument so GF(2^8) and GF(2^16) coexist.
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix over GF(2^w)."""


def gf_identity(n: int, field: GF) -> np.ndarray:
    """The n x n identity matrix over the field."""
    return np.eye(n, dtype=field.dtype)


def gf_matmul(a: np.ndarray, b: np.ndarray, field: GF) -> np.ndarray:
    """Matrix product over GF(2^w).

    Implemented as a LUT gather + XOR-reduction along the inner axis, which
    keeps everything vectorized (no Python-level inner loops over entries).
    """
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    # products[i, t, j] = a[i, t] * b[t, j]
    products = field.mul(a[:, :, None], b[None, :, :])
    return np.bitwise_xor.reduce(products, axis=1)


def _eliminate(aug: np.ndarray, n: int, field: GF) -> np.ndarray:
    """Gauss-Jordan elimination on an augmented matrix (in place)."""
    rows = aug.shape[0]
    for col in range(n):
        # partial "pivoting": any nonzero entry works over a field
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise SingularMatrixError(f"singular at column {col}")
        piv = col + int(pivot_rows[0])
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        inv_p = field.inv(int(aug[col, col]))
        if inv_p != 1:
            aug[col] = field.mul(field.dtype(inv_p), aug[col])
        # eliminate every other row's entry in this column
        col_vals = aug[:, col].copy()
        col_vals[col] = 0
        nz = np.nonzero(col_vals)[0]
        if nz.size:
            aug[nz] ^= field.mul(col_vals[nz][:, None], aug[col][None, :])
    if rows != n:
        raise AssertionError("augmented matrix must be square on the left")
    return aug


def gf_inv(a: np.ndarray, field: GF) -> np.ndarray:
    """Inverse of a square matrix over GF(2^w) via Gauss-Jordan."""
    a = np.asarray(a, dtype=field.dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    aug = np.concatenate([a.copy(), gf_identity(n, field)], axis=1)
    _eliminate(aug, n, field)
    return aug[:, n:].copy()


def gf_rank(a: np.ndarray, field: GF) -> int:
    """Rank of a matrix over GF(2^w) (row echelon reduction)."""
    m = np.asarray(a, dtype=field.dtype).copy()
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot_rows = np.nonzero(m[rank:, col])[0]
        if pivot_rows.size == 0:
            continue
        piv = rank + int(pivot_rows[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv_p = field.inv(int(m[rank, col]))
        if inv_p != 1:
            m[rank] = field.mul(field.dtype(inv_p), m[rank])
        below = m[rank + 1 :, col].copy()
        nz = np.nonzero(below)[0]
        if nz.size:
            m[rank + 1 + nz] ^= field.mul(below[nz][:, None], m[rank][None, :])
        rank += 1
    return rank
