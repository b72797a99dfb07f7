"""Generator-matrix constructions for systematic (k, m) RS codes.

Two constructions are provided:

* **Cauchy-extended** (default): G = [I_k ; C] where C is an m x k Cauchy
  matrix.  Every square submatrix of a Cauchy matrix is nonsingular, which
  makes [I ; C] MDS for *all* (k, m) with k + m <= 2^w.  This mirrors the
  "Cauchy-good" matrices of jerasure/ISA-L.
* **Row-reduced Vandermonde**: take the (k+m) x k Vandermonde matrix V over
  distinct evaluation points and right-multiply by ``inv(V[:k])`` so the top
  k rows become the identity.  Any k rows of V are invertible (Vandermonde
  determinant), and right-multiplying by a fixed invertible matrix preserves
  that, so this construction is MDS too.  It matches the paper's description
  ("encoding coefficient generated from the Vandermonde matrix").
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF, gf8
from repro.gf.matrix import gf_identity, gf_inv, gf_matmul


def _vandermonde_matrix(rows: int, cols: int, field: GF = gf8) -> np.ndarray:
    """The rows x cols Vandermonde matrix ``V[i, j] = x_i^j`` with x_i = i.

    Evaluation points 0, 1, ..., rows-1 must be distinct, so rows <= 2^w.
    """
    if rows > field.size:
        raise ValueError(f"need rows <= 2^{field.w} distinct points, got {rows}")
    v = np.zeros((rows, cols), dtype=field.dtype)
    for i in range(rows):
        for j in range(cols):
            v[i, j] = field.pow(i, j) if not (i == 0 and j == 0) else 1
    # x^0 = 1 for every x, including x = 0 by convention.
    v[:, 0] = 1
    v[0, 1:] = 0
    return v


def cauchy_parity_matrix(k: int, m: int, field: GF = gf8) -> np.ndarray:
    """An m x k Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)``.

    Points x_i = k + i and y_j = j are pairwise distinct, so every
    denominator is nonzero and every square submatrix is nonsingular.
    """
    if k + m > field.size:
        raise ValueError(f"k + m = {k + m} exceeds field size 2^{field.w}")
    x = np.arange(k, k + m, dtype=np.uint32)
    y = np.arange(0, k, dtype=np.uint32)
    denom = (x[:, None] ^ y[None, :]).astype(field.dtype)
    return field.inv(denom).astype(field.dtype)


def systematic_cauchy_generator(k: int, m: int, field: GF = gf8) -> np.ndarray:
    """Systematic MDS generator matrix [I_k ; Cauchy(m, k)]."""
    return np.concatenate(
        [gf_identity(k, field), cauchy_parity_matrix(k, m, field)], axis=0
    )


def systematic_vandermonde_generator(k: int, m: int, field: GF = gf8) -> np.ndarray:
    """Systematic MDS generator matrix from a row-reduced Vandermonde matrix."""
    if k + m > field.size:
        raise ValueError(f"k + m = {k + m} exceeds field size 2^{field.w}")
    v = _vandermonde_matrix(k + m, k, field)
    top_inv = gf_inv(v[:k], field)
    g = gf_matmul(v, top_inv, field)
    # The top block is the identity by construction; enforce exactly to guard
    # against any table bug slipping through silently.
    if not np.array_equal(g[:k], gf_identity(k, field)):
        raise AssertionError("row reduction failed to produce systematic form")
    return g
