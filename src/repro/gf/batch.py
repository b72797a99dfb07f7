"""Batched GF(2^w) kernels over stacked multi-stripe buffers.

Per-stripe repair pays the full NumPy dispatch and LUT cost for every
stripe: ``f * k`` small gathers per stripe, a fresh scale-LUT per
coefficient, and an index-conversion pass per gather.  When a failed node
takes one block from *many* stripes, every stripe with the same erasure
pattern multiplies by the *same* decode matrix — so the stripes can be
stacked side by side and repaired with one LUT-indexed matmul per pattern
group instead of one per stripe.

Two tricks make the stacked kernel fast:

* **pair-byte LUTs** (w = 8) — the byte stream is viewed as ``uint16`` and
  multiplied through a 65536-entry table that maps two packed bytes at once
  (``lut16[b1 << 8 | b0] = (c*b1) << 8 | (c*b0)``), halving the number of
  gathered elements; building the table is amortized over the whole batch;
* **per-coefficient LUT reuse** — tables are built once per distinct
  coefficient per call and additionally memoized in a bounded module cache,
  so repeated repairs of the same pattern skip table construction entirely.

All kernels are bit-exact with :func:`repro.gf.matrix.gf_matmul` (asserted
by the differential tests); they only change *how fast* the same field
arithmetic runs.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np

from repro.gf.field import GF

#: bounded memo of scale LUTs keyed by (field word size, coefficient).
#: w=8 entries are 65536-element uint16 pair tables (128 KiB each);
#: w=16 entries are 65536-element uint16 word tables.  256 entries cover
#: every GF(2^8) coefficient; the LRU bound only matters for GF(2^16).
_LUT_CACHE: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_LUT_CACHE_CAPACITY = 512
#: guards every _LUT_CACHE mutation (get+move_to_end, insert, popitem):
#: _scale_lut is called from concurrent wave dispatch and the serving
#: plane's thread-level fan-out, and an unlocked OrderedDict corrupts
#: under simultaneous LRU reordering/eviction (same hazard the PlanCache
#: lock closed in repro.repair.batch).
_LUT_CACHE_LOCK = threading.Lock()

#: The pair-byte fast path reinterprets byte pairs as uint16 words, which
#: only matches :func:`_pair_lut8`'s index packing on a little-endian
#: host; big-endian hosts take the bytewise fallback in
#: :func:`gf_plane_matmul` instead (bit-exact, just one gather per byte
#: rather than per pair).
_PAIR_VIEW_OK = sys.byteorder == "little"


def _pair_lut8(field: GF, coeff: int) -> np.ndarray:
    """The uint16 pair table for ``coeff`` in a byte-sized field (w <= 8).

    Index packing is explicitly little-endian: a byte pair ``[b0, b1]``
    viewed as a host uint16 reads ``b0 | (b1 << 8)`` only when the host
    is little-endian (the ``_PAIR_VIEW_OK`` gate), and the table maps that
    index to ``(c*b0) | ((c*b1) << 8)`` — so storing the gathered word
    back puts ``c*b0`` in the low byte and ``c*b1`` in the high byte,
    exactly where the source bytes came from.  For w < 8 only indices
    whose bytes are valid field elements are ever gathered; the rest stay
    zero.
    """
    lut8 = np.zeros(256, dtype=np.uint16)
    lut8[: field.size] = field.mul_table[coeff]
    # row index = high byte (<< 8), column index = low byte: entry
    # [hi, lo] of the outer sum is (c*hi) << 8 | (c*lo), raveled so the
    # flat index is (hi << 8) | lo.
    return np.add.outer(lut8 << 8, lut8).ravel()


def _word_lut16(field: GF, coeff: int) -> np.ndarray:
    """The uint16 element table for ``coeff`` in GF(2^16)."""
    lut = field.exp[
        (int(field.log[coeff]) + field.log[: field.size]) % field.order
    ].astype(field.dtype)
    lut[0] = 0
    return lut


def _scale_lut(field: GF, coeff: int) -> np.ndarray:
    """Memoized multiply-by-``coeff`` lookup table for batched gathers.

    For w = 8 the table maps byte *pairs* (see :func:`_pair_lut8`); for
    w = 16 it maps single field elements.  Tables are read-only views into
    a bounded LRU cache shared by every batch kernel call.
    """
    coeff = int(coeff)
    if not 0 < coeff < field.size:
        raise ValueError(f"coefficient {coeff} outside 1..{field.size - 1}")
    key = (field.w, coeff)
    with _LUT_CACHE_LOCK:
        cached = _LUT_CACHE.get(key)
        if cached is not None:
            _LUT_CACHE.move_to_end(key)
            return cached
    # Build outside the lock: table construction is the slow path and must
    # not serialize concurrent hits on other coefficients.
    if field.mul_table is not None:  # byte-sized fields (w <= 8): pair tables
        lut = _pair_lut8(field, coeff)
    else:  # w == 16: one table entry per field element
        lut = _word_lut16(field, coeff)
    lut.setflags(write=False)
    with _LUT_CACHE_LOCK:
        raced = _LUT_CACHE.get(key)
        if raced is not None:
            # Another thread built the same table first; serve its copy so
            # `_scale_lut(f, c) is _scale_lut(f, c)` holds under contention.
            _LUT_CACHE.move_to_end(key)
            return raced
        _LUT_CACHE[key] = lut
        while len(_LUT_CACHE) > _LUT_CACHE_CAPACITY:
            _LUT_CACHE.popitem(last=False)
    return lut


def gf_plane_matmul(mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
    """``mat @ plane`` over GF(2^w) for a stacked source plane.

    ``mat`` is (f, k) and ``plane`` is (k, N) — typically N = stripes x
    block length, i.e. the survivors of a whole pattern group laid side by
    side.  Returns the (f, N) product.  One LUT gather per nonzero matrix
    entry; coefficient-1 entries degrade to a plain XOR.
    """
    mat = np.asarray(mat, dtype=field.dtype)
    plane = np.asarray(plane, dtype=field.dtype)
    if mat.ndim != 2 or plane.ndim != 2 or mat.shape[1] != plane.shape[0]:
        raise ValueError(f"incompatible shapes {mat.shape} x {plane.shape}")
    f, k = mat.shape
    n = plane.shape[1]
    out = np.zeros((f, n), dtype=field.dtype)
    if n == 0:
        return out

    if field.mul_table is not None and not _PAIR_VIEW_OK:
        # Big-endian host (or a test forcing the gate): the uint16
        # reinterpret below would swap _pair_lut8's index packing, so
        # gather one byte at a time through the plain multiply table.
        for i in range(f):
            row = out[i]
            for t in range(k):
                c = int(mat[i, t])
                if c == 0:
                    continue
                if c == 1:
                    row ^= plane[t]
                    continue
                row ^= field.mul_table[c][plane[t]]
        return out

    if field.mul_table is not None:  # byte-sized fields: pair-byte gathers
        plane = np.ascontiguousarray(plane)
        half = n // 2
        src16 = plane[:, : half * 2].view(np.uint16) if half else None
        out16 = out[:, : half * 2].view(np.uint16) if half else None
        tmp = np.empty(half, dtype=np.uint16) if half else None
        tail = n - half * 2  # odd trailing byte per row, handled bytewise
        for i in range(f):
            row16 = out16[i] if half else None
            for t in range(k):
                c = int(mat[i, t])
                if c == 0:
                    continue
                if c == 1:
                    if half:
                        row16 ^= src16[t]
                    if tail:
                        out[i, -1] ^= plane[t, -1]
                    continue
                if half:
                    np.take(_scale_lut(field, c), src16[t], out=tmp)
                    row16 ^= tmp
                if tail:
                    out[i, -1] ^= field.mul_table[c, plane[t, -1]]
        return out

    # w == 16: elements are already words; gather through the element LUT
    tmp = np.empty(n, dtype=field.dtype)
    for i in range(f):
        row = out[i]
        for t in range(k):
            c = int(mat[i, t])
            if c == 0:
                continue
            if c == 1:
                row ^= plane[t]
                continue
            np.take(_scale_lut(field, c), plane[t], out=tmp)
            row ^= tmp
    return out

