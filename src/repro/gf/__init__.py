"""Galois-field arithmetic substrate.

This subpackage replaces Intel ISA-L from the paper's prototype: it provides
bit-exact GF(2^w) arithmetic (w = 8 or 16), dense matrix algebra over the
field (multiplication, Gauss-Jordan inversion) used to build Reed-Solomon
generator and repair matrices, and :func:`matmul` — the one entry point every
operation over *block bytes* (encode, decode, verify, agent combines, parity
deltas) goes through, running on the selected kernel tier; its rows form
:func:`matmul_rows` takes the sources as separate buffers.
"""

from repro.gf.field import GF, gf8
from repro.gf.matrix import (
    gf_matmul,
    gf_inv,
    gf_rank,
    gf_identity,
)
from repro.gf.batch import gf_plane_matmul
from repro.gf.backend.base import matmul, matmul_rows
from repro.gf.backend import (
    BackendUnavailable,
    available_backends,
    get_backend,
    select_backend,
)

__all__ = [
    "GF",
    "gf8",
    "BackendUnavailable",
    "available_backends",
    "get_backend",
    "select_backend",
    "matmul",
    "matmul_rows",
    "gf_matmul",
    "gf_inv",
    "gf_rank",
    "gf_identity",
    "gf_plane_matmul",
]
