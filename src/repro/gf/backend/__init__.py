"""Pluggable GF(2^w) kernel backends behind the plane-matmul seam.

The paper's testbed decodes through Intel ISA-L at GB/s, which makes
repair *network*-bound; a pure-NumPy kernel tier caps out around
200–250 MB/s and silently shifts every downstream model's compute/
transfer balance.  This package makes the kernel a pluggable tier:

* ``numpy`` — the original pair-byte/word LUT path; always available;
* ``native`` — a small C library (compiled lazily through ``cc`` against
  the interpreter's headers, cached per user, loaded with
  :class:`ctypes.PyDLL`) implementing one ISA-L-style dot-product kernel
  per field over k source buffers read in place, with the classic
  split-nibble SIMD layout; ~13x the NumPy tier on GF(2^8) planes where
  AVX2 is available.  Its one entry per field takes the arrays as Python
  objects and checks their buffers in C, so a call costs about a
  microsecond on top of the kernel's bytes.

A host-specific tier (a vendor library's bindings, say) plugs in by
subclassing :class:`KernelBackend` and calling :func:`register_backend`.

Selection is ``REPRO_GF_BACKEND`` override → best available
(:func:`select_backend`); every engine seam accepts a ``backend=`` name
so tests and benches can pin a tier explicitly.  All backends are
bit-exact with :func:`repro.gf.matrix.gf_matmul` — the differential suite
(`tests/test_gf_backend.py`) pins each one against the reference and
against every other.  See ``docs/KERNELS.md``.
"""

from repro.gf.backend.base import (
    BackendUnavailable,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    select_backend,
)
from repro.gf.backend.native import NativeBackend
from repro.gf.backend.numpy_backend import NumpyBackend

#: the singleton instances selection picks from, registered best-first.
register_backend(NativeBackend())
register_backend(NumpyBackend())

__all__ = [
    "BackendUnavailable",
    "KernelBackend",
    "NumpyBackend",
    "NativeBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "select_backend",
]
