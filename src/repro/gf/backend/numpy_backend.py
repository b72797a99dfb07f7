"""The always-available NumPy backend: pair-byte / word LUT gathers.

This is the original kernel tier, unchanged: it delegates to
:func:`repro.gf.batch.gf_plane_matmul` (pair-byte uint16 tables for byte
fields on little-endian hosts, per-element word tables for GF(2^16),
bytewise fallback elsewhere).  It exists as a backend object so the
selection machinery and the differential tests treat the reference tier
exactly like every native tier — and so there is always *something* to
select when no compiler or library exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.gf.backend.base import KernelBackend

if TYPE_CHECKING:  # pragma: no cover - repro.gf.field imports this package
    from repro.gf.field import GF


class NumpyBackend(KernelBackend):
    """Pure-NumPy LUT kernel; the floor every other backend must beat."""

    name = "numpy"
    priority = 0

    def capabilities(self, w: int) -> bool:
        """Every supported field: the reference tier can never be absent."""
        return w in (4, 8, 16)

    def plane_matmul(self, mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
        from repro.gf.batch import gf_plane_matmul

        return gf_plane_matmul(mat, plane, field)
