"""Systematic (k, m) Reed-Solomon codes.

Block indices follow the paper's stripe layout: indices ``0..k-1`` are data
blocks ``D_1..D_k`` and indices ``k..k+m-1`` are parity blocks ``P_1..P_m``.
Blocks are 1-D ``uint8``/``uint16`` NumPy buffers of equal length.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro.gf import matmul, matmul_rows
from repro.gf.field import GF, gf8
from repro.gf.matrix import gf_identity, gf_inv, gf_matmul
from repro.ec.matrices import systematic_cauchy_generator, systematic_vandermonde_generator

#: repair matrices memoized per code (LRU).  Codes are process-wide
#: singletons (:func:`get_code`) and long runs see an open-ended stream of
#: erasure patterns, so the memo must not grow with them; 256 patterns of a
#: (32, 8) code are ~64 KiB.
REPAIR_CACHE_CAPACITY = 256


class RSCode:
    """A systematic (k, m) Reed-Solomon code over GF(2^w).

    Parameters
    ----------
    k, m : data / parity block counts; ``k + m <= 2^w``.
    field : the Galois field (default GF(2^8)).
    construction : ``"cauchy"`` (default) or ``"vandermonde"``; both are MDS.
    """

    def __init__(self, k: int, m: int, field: GF = gf8, construction: str = "cauchy"):
        if k < 1 or m < 1:
            raise ValueError("k and m must be positive")
        if k + m > field.size:
            raise ValueError(f"k + m = {k + m} exceeds field size 2^{field.w}")
        self.k = k
        self.m = m
        self.n = k + m
        self.field = field
        self.construction = construction
        if construction == "cauchy":
            self.generator = systematic_cauchy_generator(k, m, field)
        elif construction == "vandermonde":
            self.generator = systematic_vandermonde_generator(k, m, field)
        else:
            raise ValueError(f"unknown construction {construction!r}")
        self.generator.setflags(write=False)
        self._repair_cache: OrderedDict[
            tuple[tuple[int, ...], tuple[int, ...]], np.ndarray
        ] = OrderedDict()
        #: codes are shared across threads (:func:`get_code`); an unlocked
        #: OrderedDict corrupts under concurrent LRU reordering/eviction.
        self._repair_cache_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _as_block_matrix(self, blocks) -> np.ndarray:
        arr = np.asarray(blocks, dtype=self.field.dtype)
        if arr.ndim != 2:
            raise ValueError("blocks must be a 2-D array (rows = blocks)")
        return arr

    def encode(self, data_blocks):
        """Encode k data blocks into m parity blocks.

        ``data_blocks`` is a (k, B) array; returns an (m, B) array.  Given
        a list or tuple of k separate 1-D blocks instead, it reads them in
        place and returns a list of m separately allocated parity rows (the
        rows form, :func:`repro.gf.matmul_rows`).
        """
        if isinstance(data_blocks, (list, tuple)):
            return matmul_rows(self.generator[self.k :], data_blocks, self.field)
        data = self._as_block_matrix(data_blocks)
        if data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data blocks, got {data.shape[0]}")
        return matmul(self.generator[self.k :], data, self.field)

    def encode_stripe(self, data_blocks) -> np.ndarray:
        """Return the full (k+m, B) stripe: data rows followed by parity rows."""
        data = self._as_block_matrix(data_blocks)
        return np.concatenate([data, self.encode(data)], axis=0)

    # ------------------------------------------------------------------ #
    def repair_matrix(self, survivor_ids, failed_ids) -> np.ndarray:
        """The f x k matrix R with ``failed = R @ survivors``.

        ``survivor_ids`` must contain exactly k distinct block indices and be
        disjoint from ``failed_ids``.  Because the code is MDS, the k x k
        submatrix A of generator rows for the survivors is invertible and
        ``R = G[failed] @ A^{-1}``.

        Results are memoized per (survivors, failed) pair in a bounded LRU
        (:data:`REPAIR_CACHE_CAPACITY`), mirroring how a real coordinator
        would reuse repair solutions across stripes with the same erasure
        pattern.
        """
        survivors = tuple(sorted(int(i) for i in survivor_ids))
        failed = tuple(int(i) for i in failed_ids)
        if len(set(survivors)) != self.k:
            raise ValueError(f"need exactly k={self.k} distinct survivors")
        if set(survivors) & set(failed):
            raise ValueError("survivor and failed sets overlap")
        for i in survivors + failed:
            if not 0 <= i < self.n:
                raise ValueError(f"block index {i} out of range 0..{self.n - 1}")
        key = (survivors, failed)
        with self._repair_cache_lock:
            cached = self._repair_cache.get(key)
            if cached is not None:
                self._repair_cache.move_to_end(key)
                return cached
        r = self.derive_repair_matrix(survivors, failed)
        with self._repair_cache_lock:
            self._repair_cache[key] = r
            while len(self._repair_cache) > REPAIR_CACHE_CAPACITY:
                self._repair_cache.popitem(last=False)
        return r

    def derive_repair_matrix(self, survivors, failed) -> np.ndarray:
        """``G[failed] @ inv(G[survivors])``, uncached and unvalidated.

        The one derivation of the decode matrix: :meth:`repair_matrix`
        memoizes it per code, :class:`repro.repair.batch.PlanCache` per
        system.  Column j of the result weights ``survivors[j]``, in the
        order given.  Coefficient algebra, so it runs on the LUT reference
        (``gf_inv``/``gf_matmul``), not the data-plane seam.  Read-only.

        Only the erased core is inverted.  With ``G = [I; C]``, a surviving
        data block is its own row of ``inv(G[survivors])``; the e erased data
        blocks E follow from the e surviving parities P as
        ``inv(C[P, E]) @ (P + C[P, surviving data])``.  That e x e inverse is
        the whole Gauss-Jordan (none when e = 0), where the full survivor
        matrix is k x k, and the result is the same matrix: the inverse is
        unique and the field arithmetic exact.
        """
        k, field = self.k, self.field
        survivors = [int(s) for s in survivors]
        pos_data = [j for j, s in enumerate(survivors) if s < k]
        pos_parity = [j for j, s in enumerate(survivors) if s >= k]
        held = [survivors[j] for j in pos_data]
        erased = sorted(set(range(k)) - set(held))
        g_failed = self.generator[list(failed)]
        r = np.zeros((len(g_failed), k), dtype=field.dtype)
        r[:, pos_data] = g_failed[:, held]
        if erased:
            c_parity = self.generator[[survivors[j] for j in pos_parity]]
            # rows E of inv(G[survivors]): M^-1 on the parity columns and
            # M^-1 @ C[P, surviving data] on the data columns, M = C[P, E]
            rhs = np.zeros((len(erased), k), dtype=field.dtype)
            rhs[:, pos_parity] = gf_identity(len(erased), field)
            rhs[:, pos_data] = c_parity[:, held]
            core_inv = gf_inv(c_parity[:, erased], field)
            r ^= gf_matmul(gf_matmul(g_failed[:, erased], core_inv, field), rhs, field)
        r.setflags(write=False)
        return r

    def decode(self, available: dict[int, np.ndarray], failed_ids) -> dict[int, np.ndarray]:
        """Reconstruct the blocks in ``failed_ids`` from any k available blocks.

        ``available`` maps block index -> buffer.  If more than k blocks are
        supplied, the k smallest indices are used (deterministic).  The
        survivors are read in place and each rebuilt block is its own array.
        """
        failed = [int(i) for i in failed_ids]
        avail_ids = sorted(available)
        if len(avail_ids) < self.k:
            raise ValueError(
                f"need at least k={self.k} available blocks, got {len(avail_ids)}"
            )
        chosen = avail_ids[: self.k]
        r = self.repair_matrix(chosen, failed)
        srcs = [np.asarray(available[i], dtype=self.field.dtype) for i in chosen]
        return dict(zip(failed, matmul_rows(r, srcs, self.field)))

    def decode_stripe(self, available: dict[int, np.ndarray]) -> np.ndarray:
        """Reconstruct the full stripe (k+m, B) from any k available blocks."""
        missing = [i for i in range(self.n) if i not in available]
        repaired = self.decode(available, missing)
        length = len(next(iter(available.values())))
        stripe = np.zeros((self.n, length), dtype=self.field.dtype)
        for i in range(self.n):
            stripe[i] = available[i] if i in available else repaired[i]
        return stripe

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RSCode(k={self.k}, m={self.m}, w={self.field.w}, {self.construction})"


@lru_cache(maxsize=64)
def get_code(k: int, m: int, w: int = 8, construction: str = "cauchy") -> RSCode:
    """Cached code lookup; building wide generator matrices is not free."""
    return RSCode(k, m, GF(w), construction)
