"""The two GF kernel tiers, their selection, and the plane-matmul seam.

Every byte path in the system funnels its hot loop through one
operation — ``mat @ plane`` over GF(2^w) (:func:`matmul`, one inline call
per plane).  A *tier* is one implementation of that operation; the
package ships two, held in :data:`_TIERS` in selection order:

* :class:`~repro.gf.backend.native.NativeBackend` — the C dot-product
  kernel, GF(2^8) and GF(2^16), available once it has compiled;
* :class:`~repro.gf.backend.numpy_backend.NumpyBackend` — the LUT
  gathers, GF(2^4), GF(2^8) and GF(2^16), always available.

Each tier class carries a ``name`` (what ``REPRO_GF_BACKEND`` names), the
word sizes it covers (``fields``), an :meth:`available` probe (cached by
the tier), and the kernel in two forms: ``plane_matmul`` over a stacked
(k, N) plane and ``rows_matmul`` over k separate buffers.  Both tiers are
**bit-exact** with :func:`repro.gf.matrix.gf_matmul`; the choice only
moves throughput (the differential suite pins each against the reference
and against the other).

:func:`select_backend` picks the first available tier covering a word
size, unless the ``REPRO_GF_BACKEND`` environment variable (or an
explicit argument) forces one by name.  :func:`matmul` and
:func:`matmul_rows` — select, then multiply — sit behind every byte the
codes, agents and coordinator touch.  See ``docs/KERNELS.md``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.gf.backend.native import NativeBackend
from repro.gf.backend.numpy_backend import NumpyBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.gf.field import GF

#: environment variable naming the backend to force (empty/unset = auto).
_ENV_VAR = "REPRO_GF_BACKEND"

#: the shipped tiers, one instance each, in selection order.
_TIERS = (NativeBackend(), NumpyBackend())
#: (w, forced name or ``None``) -> :func:`select_backend`'s answer.  Each
#: tier caches its own availability, so an answer never changes.
_SELECTED: dict = {}


class BackendUnavailable(RuntimeError):
    """A requested kernel backend is unknown, unavailable, or incapable."""


def registered_backends() -> list[str]:
    """Every tier's name, in selection order (availability not probed)."""
    return [t.name for t in _TIERS]


def get_backend(name: str):
    """The tier called ``name``; raises :class:`BackendUnavailable`."""
    for tier in _TIERS:
        if tier.name == name:
            return tier
    raise BackendUnavailable(
        f"unknown GF kernel backend {name!r}; registered: {registered_backends()}"
    )


def available_backends(w: int | None = None) -> list[str]:
    """Names of the tiers that can run here, in selection order; with
    ``w``, only those covering GF(2^w)."""
    return [t.name for t in _TIERS if (w is None or w in t.fields) and t.available()]


def select_backend(w: int = 8, override: str | None = None):
    """The tier the engines should use for GF(2^w).

    Selection order:

    1. ``override`` argument, if given;
    2. the ``REPRO_GF_BACKEND`` environment variable, if set and non-empty;
    3. the first tier, in :func:`registered_backends` order, that is
       available *and* covers ``w``.

    An override naming an unknown, unavailable, or incapable tier raises
    :class:`BackendUnavailable` — a forced tier silently degrading to
    another kernel would defeat the point of forcing it.

    The answer is memoised per ``(w, forced name)``; the environment is
    read on every call, so a changed ``REPRO_GF_BACKEND`` takes effect at
    once.
    """
    name = override if override is not None else os.environ.get(_ENV_VAR) or None
    backend = _SELECTED.get((w, name))
    if backend is None:
        backend = _SELECTED[w, name] = _select(w, name)
    return backend


def _select(w: int, name: str | None):
    """:func:`select_backend` without the memo."""
    if name:
        backend = get_backend(name)
        if w not in backend.fields:
            raise BackendUnavailable(f"backend {name!r} does not support GF(2^{w})")
        if not backend.available():
            raise BackendUnavailable(f"backend {name!r} is not available on this host")
        return backend
    for tier in _TIERS:
        if w in tier.fields and tier.available():
            return tier
    raise BackendUnavailable(f"no GF kernel tier supports GF(2^{w})")


def matmul(mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
    """``mat @ plane`` over the field: the one data-plane kernel entry point.

    Every GF operation over *block bytes* — encode, decode, verify, agent
    combines, parity deltas — is this call: the :func:`select_backend`
    choice for the field's word size, looked up per call so a changed
    ``REPRO_GF_BACKEND`` takes effect at once.  ``mat`` is an (f, k)
    coefficient matrix and ``plane`` a (k, N) stack of block buffers; the
    (f, N) result is a fresh array, bit-exact with
    :func:`repro.gf.matrix.gf_matmul`, which stays the LUT reference for
    coefficient algebra and the oracle the differential suite compares to.
    """
    return select_backend(field.w).plane_matmul(mat, plane, field)


def matmul_rows(mat: np.ndarray, rows, field: GF) -> list[np.ndarray]:
    """:func:`matmul` over k separate source buffers, read in place.

    ``rows`` are k equal-length 1-D arrays of the field's dtype; the result
    is a list of f separately allocated rows — what a caller that stores or
    ships each product row needs, without stacking its sources first.
    Same selection, same bits as :func:`matmul`.
    """
    return select_backend(field.w).rows_matmul(mat, rows, field)
