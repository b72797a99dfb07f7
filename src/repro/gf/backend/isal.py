"""Optional Intel ISA-L bindings — the paper's actual decode tier.

The paper's testbed decodes through ISA-L's ``ec_encode_data`` (runtime-
dispatched SSSE3/AVX2/AVX-512 ``gf_vect_mad`` kernels over GF(2^8) with
the same primitive polynomial 0x11D this reproduction uses, so results
are bit-identical).  When a shared ``libisal`` is present on the host the
backend binds it through :mod:`ctypes` — no build step, no Python
package — and outranks the bundled native tier; absent, it simply never
appears in :func:`repro.gf.backend.available_backends`.

``ec_encode_data(len, k, rows, gftbls, data, coding)`` computes exactly
the plane product: ``coding[i] = XOR_t gf_mul(mat[i, t], data[t])`` with
``gftbls`` expanded from the row-major (rows, k) coefficient matrix by
``ec_init_tables`` — i.e. ``mat @ plane`` with each plane row a separate
source buffer.  GF(2^16) is out of scope for ISA-L's EC API; selection
falls through to the native tier there.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.gf.backend.base import KernelBackend
from repro.gf.tables import PRIMITIVE_POLY

if TYPE_CHECKING:  # pragma: no cover - repro.gf.field imports this package
    from repro.gf.field import GF

#: sonames probed after ctypes.util.find_library comes up empty.
_CANDIDATE_LIBS = ("libisal.so.2", "libisal.so", "libisal.2.dylib", "libisal.dylib")

#: ISA-L's GF(2^8) generator polynomial; bit-exactness with our field
#: requires the polynomials to agree (they do: 0x11D on both sides).
_ISAL_POLY = 0x11D


def _find_isal() -> ctypes.CDLL | None:
    """dlopen libisal if the host has it; None otherwise."""
    names = []
    found = ctypes.util.find_library("isal")
    if found:
        names.append(found)
    names.extend(_CANDIDATE_LIBS)
    for name in names:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        if hasattr(lib, "ec_init_tables") and hasattr(lib, "ec_encode_data"):
            return lib
    return None


class IsalBackend(KernelBackend):
    """GF(2^8) plane matmul through ISA-L's erasure-code kernels."""

    name = "isal"
    priority = 20

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lib: ctypes.CDLL | None = None
        self._probed = False

    def _load(self) -> ctypes.CDLL | None:
        if self._probed:
            return self._lib
        with self._lock:
            if self._probed:
                return self._lib
            lib = _find_isal()
            if lib is not None:
                ptr, c_int = ctypes.c_void_p, ctypes.c_int
                lib.ec_init_tables.argtypes = [c_int, c_int, ptr, ptr]
                lib.ec_init_tables.restype = None
                lib.ec_encode_data.argtypes = [c_int, c_int, c_int, ptr, ptr, ptr]
                lib.ec_encode_data.restype = None
            self._lib = lib
            self._probed = True
        return self._lib

    def capabilities(self, w: int) -> bool:
        """GF(2^8) only, and only while the field polynomial matches ISA-L's."""
        return w == 8 and PRIMITIVE_POLY.get(8) == _ISAL_POLY

    def available(self) -> bool:
        return self._load() is not None

    def plane_matmul(self, mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
        lib = self._load()
        if lib is None:
            raise RuntimeError("isal backend unavailable: libisal not found")
        if not self.capabilities(field.w):
            raise RuntimeError(f"isal backend does not support GF(2^{field.w})")
        mat = np.ascontiguousarray(np.asarray(mat, dtype=np.uint8))
        plane = np.asarray(plane, dtype=np.uint8)
        if mat.ndim != 2 or plane.ndim != 2 or mat.shape[1] != plane.shape[0]:
            raise ValueError(f"incompatible shapes {mat.shape} x {plane.shape}")
        f, k = mat.shape
        n = plane.shape[1]
        out = np.zeros((f, n), dtype=np.uint8)
        if n == 0 or f == 0 or k == 0:
            return out
        plane = np.ascontiguousarray(plane)
        gftbls = np.empty(k * f * 32, dtype=np.uint8)
        lib.ec_init_tables(k, f, mat.ctypes.data, gftbls.ctypes.data)
        src_ptrs = (ctypes.c_void_p * k)(
            *(plane.ctypes.data + t * n for t in range(k))
        )
        dst_ptrs = (ctypes.c_void_p * f)(
            *(out.ctypes.data + i * n for i in range(f))
        )
        lib.ec_encode_data(n, k, f, gftbls.ctypes.data, src_ptrs, dst_ptrs)
        return out
