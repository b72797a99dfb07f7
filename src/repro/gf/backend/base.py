"""Backend protocol, registry, and auto-selection for the GF plane matmul.

Every byte path in the system funnels its hot loop through one
operation — ``mat @ plane`` over GF(2^w) (:func:`matmul`, one inline call
per plane).  A *kernel backend* is one implementation of that operation:

* :class:`KernelBackend` — the contract: a ``name``, a
  :meth:`~KernelBackend.capabilities` predicate saying which word sizes
  the backend handles, an :meth:`~KernelBackend.available` probe (may be
  expensive once — e.g. compiling a C extension — and must be cached by
  the implementation), and the kernel itself in two forms,
  :meth:`~KernelBackend.plane_matmul` over a stacked (k, N) plane and
  :meth:`~KernelBackend.rows_matmul` over k separate buffers (by default a
  stack, then the plane form).  Every backend is **bit-exact**
  with :func:`repro.gf.matrix.gf_matmul`; backends only change how fast
  the same field arithmetic runs (the differential suite pins every
  registered backend against the reference and against each other).
* the **registry** — :func:`register_backend` / :func:`get_backend` /
  :func:`available_backends`.  Registration is what makes a backend
  selectable by *name* (``REPRO_GF_BACKEND``, an engine's ``backend=``).
* **selection** — :func:`select_backend` picks the highest-priority
  available backend for a word size, unless the ``REPRO_GF_BACKEND``
  environment variable (or an explicit argument) overrides it.
  :func:`resolve_backend` is the engine-facing wrapper accepting a name,
  an instance, or ``None``; :func:`matmul` and :func:`matmul_rows` are the
  library-facing ones — select, then multiply — behind every byte the
  codes, agents and coordinator touch.

See ``docs/KERNELS.md`` for the selection order, measured throughput, and
how to add a backend.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.gf.field import GF

#: environment variable naming the backend to force (empty/unset = auto).
_ENV_VAR = "REPRO_GF_BACKEND"


class BackendUnavailable(RuntimeError):
    """A requested kernel backend is unknown, unavailable, or incapable."""


class KernelBackend(abc.ABC):
    """One implementation of the GF(2^w) plane matmul.

    Subclasses set :attr:`name` (the registry key) and :attr:`priority`
    (selection rank, higher wins) and implement the three probes below.
    Implementations must be thread-safe: engines on concurrent waves
    share one backend instance.
    """

    #: registry key; what ``REPRO_GF_BACKEND`` names.
    name: str = ""
    #: selection rank among available backends (higher = preferred).
    priority: int = 0

    @abc.abstractmethod
    def capabilities(self, w: int) -> bool:
        """Whether this backend handles GF(2^w) planes."""

    def available(self) -> bool:
        """Whether the backend can run here (compiler/library present).

        May do one-time expensive work (compiling, dlopen) — the result
        must be cached so selection stays cheap.
        """
        return True

    @abc.abstractmethod
    def plane_matmul(self, mat: np.ndarray, plane: np.ndarray, field: "GF") -> np.ndarray:
        """``mat @ plane`` over the field — bit-exact with ``gf_matmul``."""

    def rows_matmul(self, mat: np.ndarray, rows, field: "GF") -> list[np.ndarray]:
        """``mat @ rows`` for k equal-length 1-D source buffers: f fresh rows.

        The rows form of :meth:`plane_matmul`, for callers that hold their
        sources as separate buffers.  This default checks the rows, stacks
        them into a plane and copies the product's rows apart (a kept row
        must not pin the whole product); a backend that can read the
        sources in place overrides it and must reject the same bad rows
        with the same ``ValueError``.
        """
        mat, rows = _checked_rows(mat, rows, field)
        product = self.plane_matmul(mat, np.stack(rows), field)
        return [r.copy() for r in product] if len(product) > 1 else list(product)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"


_REGISTRY: dict[str, KernelBackend] = {}
#: (w, forced name or ``None``) -> :func:`select_backend`'s answer.  A
#: backend caches its own availability, so only :func:`register_backend`
#: can change an answer; it empties this.
_SELECTED: dict[tuple[int, str | None], KernelBackend] = {}


def register_backend(backend: KernelBackend, *, replace: bool = False) -> KernelBackend:
    """Add a backend to the registry (the name becomes selectable).

    Returns the backend for chaining.
    """
    if not backend.name:
        raise ValueError("backend must carry a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    _SELECTED.clear()
    return backend


def registered_backends() -> list[str]:
    """Every registered backend name, best-first (availability not probed)."""
    return sorted(_REGISTRY, key=lambda n: -_REGISTRY[n].priority)


def get_backend(name: str) -> KernelBackend:
    """The registered backend for ``name``; raises :class:`BackendUnavailable`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendUnavailable(
            f"unknown GF kernel backend {name!r}; registered: {registered_backends()}"
        ) from None


def available_backends(w: int | None = None) -> list[str]:
    """Names of backends that can run here, best-first.

    With ``w`` the list is additionally filtered to backends whose
    :meth:`~KernelBackend.capabilities` cover that word size.
    """
    names = []
    for name in registered_backends():
        b = _REGISTRY[name]
        if w is not None and not b.capabilities(w):
            continue
        if b.available():
            names.append(name)
    return names


def select_backend(w: int = 8, override: str | None = None) -> KernelBackend:
    """The backend the engines should use for GF(2^w).

    Selection order:

    1. ``override`` argument, if given;
    2. the ``REPRO_GF_BACKEND`` environment variable, if set and non-empty;
    3. the highest-:attr:`~KernelBackend.priority` registered backend that
       is available *and* capable of ``w``.

    An override naming an unknown, unavailable, or incapable backend
    raises :class:`BackendUnavailable` — a forced backend silently
    degrading to another kernel would defeat the point of forcing it.

    The answer is memoised per ``(w, forced name)``; the environment is
    read on every call, so a changed ``REPRO_GF_BACKEND`` takes effect at
    once.
    """
    name = override if override is not None else os.environ.get(_ENV_VAR) or None
    backend = _SELECTED.get((w, name))
    if backend is None:
        backend = _SELECTED[w, name] = _select(w, name)
    return backend


def _select(w: int, name: str | None) -> KernelBackend:
    """:func:`select_backend` without the memo."""
    if name:
        backend = get_backend(name)
        if not backend.capabilities(w):
            raise BackendUnavailable(
                f"backend {name!r} does not support GF(2^{w})"
            )
        if not backend.available():
            raise BackendUnavailable(
                f"backend {name!r} is not available on this host"
            )
        return backend
    for candidate in registered_backends():
        b = _REGISTRY[candidate]
        if b.capabilities(w) and b.available():
            return b
    raise BackendUnavailable(f"no registered backend supports GF(2^{w})")


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


def _checked_rows(mat, rows, field: GF) -> tuple[np.ndarray, list[np.ndarray]]:
    """Validate a rows-form call before it is stacked into a plane.

    Each source must be a 1-D array of exactly the field's dtype and the
    same length, and there must be one per matrix column.  The native tier
    makes the same checks, with the same messages, in its C entry.
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
    return mat, rows


def resolve_backend(spec, field_or_w) -> KernelBackend:
    """Normalize an engine's ``backend=`` argument to a live backend.

    ``spec`` may be ``None`` (auto-select, honoring ``REPRO_GF_BACKEND``),
    a registered name, or a :class:`KernelBackend` instance (validated for
    capability but not required to be registered).
    """
    w = int(getattr(field_or_w, "w", field_or_w))
    if spec is None:
        return select_backend(w)
    if isinstance(spec, str):
        return select_backend(w, override=spec)
    if isinstance(spec, KernelBackend):
        if not spec.capabilities(w):
            raise BackendUnavailable(
                f"backend {spec.name!r} does not support GF(2^{w})"
            )
        return spec
    raise TypeError(
        f"backend must be None, a name, or a KernelBackend, got {type(spec).__name__}"
    )
