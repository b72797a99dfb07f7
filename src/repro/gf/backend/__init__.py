"""The two GF(2^w) kernel tiers behind the plane-matmul seam.

The paper's testbed decodes through Intel ISA-L at GB/s, which makes
repair *network*-bound; a pure-NumPy kernel caps out around 200–250 MB/s
and would silently shift every downstream model's compute/transfer
balance.  So the kernel comes in two fixed tiers, tried in this order:

* ``native`` — a small C library (compiled lazily through ``cc`` against
  the interpreter's headers, cached per user, loaded with
  :class:`ctypes.PyDLL`) implementing one ISA-L-style dot-product kernel
  per field over k source buffers read in place, with the classic
  split-nibble SIMD layout; ~13x the NumPy tier on GF(2^8) planes where
  AVX2 is available.  Its one entry per field takes the arrays as Python
  objects and checks their buffers in C, so a call costs about a
  microsecond on top of the kernel's bytes;
* ``numpy`` — the original pair-byte/word LUT path; always available.

Selection is ``REPRO_GF_BACKEND`` override → first available tier
(:func:`select_backend`).  Both tiers are bit-exact with
:func:`repro.gf.matrix.gf_matmul` — the differential suite
(`tests/test_gf_backend.py`) pins each against the reference and against
the other.  See ``docs/KERNELS.md``.
"""

from repro.gf.backend.base import (
    BackendUnavailable,
    available_backends,
    get_backend,
    registered_backends,
    select_backend,
)
from repro.gf.backend.native import NativeBackend
from repro.gf.backend.numpy_backend import NumpyBackend

__all__ = [
    "BackendUnavailable",
    "NumpyBackend",
    "NativeBackend",
    "available_backends",
    "get_backend",
    "registered_backends",
    "select_backend",
]
