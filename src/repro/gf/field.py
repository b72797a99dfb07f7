"""GF(2^w) field objects with vectorized arithmetic kernels.

Two kinds of operand, two paths.  *Coefficient* algebra — scalars and small
matrices: generator construction, inversion, repair matrices — runs on the
log/exp and multiply tables here (:meth:`GF.mul` and friends; also the
reference the kernel backends are tested against).  *Block buffers* — the
``dst ^= coeff * src`` of ISA-L's ``gf_vect_mad`` over large byte arrays —
go through :func:`repro.gf.matmul`, the selected kernel backend
(:meth:`GF.scale`, :meth:`GF.addmul`, :meth:`GF.combine` are 1 x n
products in its rows form, :func:`repro.gf.matmul_rows`).  Fields are cached
singletons: ``GF(8) is GF(8)``.
"""

from __future__ import annotations

import numpy as np

from repro.gf.backend.base import matmul_rows
from repro.gf.tables import PRIMITIVE_POLY, build_inv_table, build_log_exp, build_mul_table

_FIELD_CACHE: dict[int, "GF"] = {}


class GF:
    """Finite field GF(2^w).

    Parameters
    ----------
    w : word size in bits (4, 8 or 16). 8 is the default used throughout the
        reproduction (stripe widths k+m <= 256 cover every configuration in
        the paper, including the VAST (150, 4) code).
    """

    def __new__(cls, w: int = 8):
        # Only fully-initialized fields ever enter the cache (see __init__),
        # so a failed construction — GF(5) — cannot poison the singleton
        # slot with a half-built object for every later caller.
        cached = _FIELD_CACHE.get(w)
        if cached is not None:
            return cached
        return super().__new__(cls)

    def __init__(self, w: int = 8):
        if getattr(self, "_initialized", False):
            return
        if w not in PRIMITIVE_POLY:
            raise ValueError(f"unsupported word size w={w}")
        self.w = w
        self.order = (1 << w) - 1  # size of the multiplicative group
        self.size = 1 << w
        self.dtype = np.uint8 if w <= 8 else np.uint16
        self.log, self.exp = build_log_exp(w)
        self.inv_table = build_inv_table(w)
        self.mul_table = build_mul_table(w) if w <= 8 else None
        self._initialized = True
        _FIELD_CACHE[w] = self

    # ------------------------------------------------------------------ #
    # scalar / elementwise arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a, b):
        """Addition in GF(2^w) is XOR (also subtraction)."""
        return np.bitwise_xor(a, b)

    sub = add

    def mul(self, a, b):
        """Elementwise product. Accepts scalars or broadcastable arrays."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if self.mul_table is not None:
            out = self.mul_table[a.astype(np.intp), b.astype(np.intp)]
        else:
            out = self.exp[self.log[a].astype(np.int64) + self.log[b].astype(np.int64)]
            out = np.where((a == 0) | (b == 0), self.dtype(0), out)
        if out.ndim == 0:
            return int(out)
        return out

    def div(self, a, b):
        """Elementwise quotient ``a / b``; raises on division by zero."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^w)")
        out = self.exp[
            (self.log[a].astype(np.int64) - self.log[b].astype(np.int64)) % self.order
        ]
        out = np.where(a == 0, self.dtype(0), out)
        if out.ndim == 0:
            return int(out)
        return out

    def inv(self, a):
        """Multiplicative inverse; raises on zero."""
        a_arr = np.asarray(a)
        if np.any(a_arr == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        out = self.inv_table[a_arr.astype(np.intp)]
        if out.ndim == 0:
            return int(out)
        return out

    def pow(self, a, n: int):
        """``a ** n`` for integer n (n may be negative if a != 0)."""
        a = int(a)
        if a == 0:
            if n <= 0:
                raise ZeroDivisionError("0 ** n undefined for n <= 0 in GF")
            return 0
        e = (int(self.log[a]) * n) % self.order
        return int(self.exp[e])

    # ------------------------------------------------------------------ #
    # vector kernels over block buffers (the ISA-L replacements): each is
    # a 1 x n product through the data-plane seam's rows form
    # ------------------------------------------------------------------ #
    def scale(self, coeff: int, src: np.ndarray) -> np.ndarray:
        """Return ``coeff * src`` elementwise for a buffer ``src`` (a copy)."""
        return self.combine([coeff], [src])

    def addmul(self, dst: np.ndarray, coeff: int, src: np.ndarray) -> np.ndarray:
        """In-place ``dst ^= coeff * src`` (the gf_vect_mad kernel)."""
        np.bitwise_xor(dst, self.scale(coeff, src), out=dst)
        return dst

    def combine(self, coeffs, blocks) -> np.ndarray:
        """Linear combination ``sum_i coeffs[i] * blocks[i]`` over the field.

        ``blocks`` is a sequence of equal-length buffers (or a 2-D array whose
        rows are the buffers).  Returns a new buffer.
        """
        blocks = [np.asarray(b, dtype=self.dtype) for b in blocks]
        if len(coeffs) != len(blocks):
            raise ValueError("coeffs and blocks length mismatch")
        if not blocks:
            raise ValueError("empty linear combination")
        if any(b.shape != blocks[0].shape for b in blocks):
            raise ValueError("blocks must have equal shapes")
        mat = np.asarray(coeffs, dtype=self.dtype).reshape(1, -1)
        (out,) = matmul_rows(mat, [b.reshape(-1) for b in blocks], self)
        return out.reshape(blocks[0].shape)

    def random_elements(self, shape, rng: np.random.Generator, nonzero: bool = False):
        """Uniform random field elements, optionally excluding zero."""
        lo = 1 if nonzero else 0
        return rng.integers(lo, self.size, size=shape, dtype=np.uint32).astype(self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"GF(2^{self.w})"


#: Module-level singleton for the common case.
gf8 = GF(8)
