"""The always-available NumPy tier: pair-byte / word LUT gathers.

This is the original kernel tier, unchanged: it delegates to
:func:`repro.gf.batch.gf_plane_matmul` (pair-byte uint16 tables for byte
fields on little-endian hosts, per-element word tables for GF(2^16),
bytewise fallback elsewhere).  It exists as a tier object so selection
and the differential tests treat the reference exactly like the native
tier — and so there is always *something* to select when no compiler
exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - repro.gf.field imports this package
    from repro.gf.field import GF


class NumpyBackend:
    """Pure-NumPy LUT kernel; the floor the native tier must beat."""

    name = "numpy"
    #: every supported field: the reference tier can never be absent
    fields = (4, 8, 16)

    def available(self) -> bool:
        """Always: the tier needs nothing but NumPy."""
        return True

    def plane_matmul(self, mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
        """``mat @ plane`` over the field — bit-exact with ``gf_matmul``."""
        from repro.gf.batch import gf_plane_matmul

        return gf_plane_matmul(mat, plane, field)

    def rows_matmul(self, mat: np.ndarray, rows, field: GF) -> list[np.ndarray]:
        """``mat @ rows`` for k equal-length 1-D source buffers: f fresh rows.

        Checks the rows as the native tier's C entry does (same
        ``ValueError`` messages), stacks them into a plane and copies the
        product's rows apart (a kept row must not pin the whole product).
        """
        mat = np.asarray(mat, dtype=field.dtype)
        rows = list(rows)
        if mat.ndim != 2 or mat.shape[1] != len(rows) or not rows:
            raise ValueError(f"matrix {mat.shape} does not fit {len(rows)} source rows")
        for r in rows:
            if not isinstance(r, np.ndarray) or r.dtype != field.dtype or r.ndim != 1:
                raise ValueError(f"source rows must be 1-D {np.dtype(field.dtype)} arrays")
            if r.shape != rows[0].shape:
                raise ValueError("source rows must have equal lengths")
        product = self.plane_matmul(mat, np.stack(rows), field)
        return [r.copy() for r in product] if len(product) > 1 else list(product)
