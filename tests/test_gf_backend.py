"""Twin-system differential suite for the two GF kernel tiers.

The tier contract (:mod:`repro.gf.backend`) promises that every
tier is **bit-exact** with the reference
:func:`repro.gf.matrix.gf_matmul` — backends move throughput, never bits.
This suite pins that promise three ways:

* every *available* backend against the reference, over random
  (k, m, f, pattern, block-size) geometries in GF(2^8) and GF(2^16),
  including odd-length tails, zero/one coefficients, empty planes, and
  single-column planes;
* every available backend against **each other** (the twin-system check:
  a shared bug in two backends can't hide behind a shared reference);
* the full repair path — healthy and after a fault storm widens the
  erasure pattern — and the chunked degraded-read path
  (:func:`repro.workload.pipeline.decode_chunked` with ``chunks > 1``),
  per backend.

Selection semantics (override precedence, forced-but-unavailable
errors, field coverage) are covered alongside, as is the native
tier's compiler-less fallback.
"""

import os
import sys

import numpy as np
import pytest

from repro.ec.rs import RSCode
from repro.gf import GF, gf_matmul
from repro.gf.backend import (
    BackendUnavailable,
    NativeBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    registered_backends,
    select_backend,
)
from repro.gf.backend import base
from repro.gf.backend.base import _ENV_VAR
from repro.repair.batch import BatchRepairEngine, StripeBatchItem
from repro.workload.pipeline import decode_chunked
from tests.conftest import fresh_native_tier

SEEDS = [int(s) for s in np.random.SeedSequence(909).generate_state(6)]

#: the tiers this host can actually run, per word size.
BACKENDS_8 = available_backends(8)
BACKENDS_16 = available_backends(16)


# ------------------------------------------------------------------ #
# selection semantics
# ------------------------------------------------------------------ #
def test_registry_contains_all_tiers_best_first():
    """Two fixed tiers, native first; each says which fields it covers."""
    assert registered_backends() == ["native", "numpy"]
    assert [type(get_backend(n)) for n in registered_backends()] == [NativeBackend, NumpyBackend]
    assert NativeBackend.fields == (8, 16) and NumpyBackend.fields == (4, 8, 16)


def test_numpy_backend_always_available():
    assert "numpy" in BACKENDS_8
    assert "numpy" in BACKENDS_16


def test_unknown_backend_raises():
    with pytest.raises(BackendUnavailable, match="unknown"):
        get_backend("definitely-not-a-backend")
    with pytest.raises(BackendUnavailable):
        select_backend(8, override="definitely-not-a-backend")


def test_w4_falls_back_to_numpy():
    """The native C kernels do not cover GF(2^4)."""
    assert available_backends(4) == ["numpy"]
    assert select_backend(4).name == "numpy"


def test_incapable_override_raises():
    with pytest.raises(BackendUnavailable, match="does not support"):
        select_backend(4, override="native")


def test_env_var_override_wins(monkeypatch):
    monkeypatch.setenv(_ENV_VAR, "numpy")
    assert select_backend(8).name == "numpy"
    monkeypatch.setenv(_ENV_VAR, "definitely-not-a-backend")
    with pytest.raises(BackendUnavailable):
        select_backend(8)
    monkeypatch.setenv(_ENV_VAR, "")  # empty = unset = auto
    assert select_backend(8).name == available_backends(8)[0]


def test_argument_override_beats_env(monkeypatch):
    monkeypatch.setenv(_ENV_VAR, "definitely-not-a-backend")
    assert select_backend(8, override="numpy").name == "numpy"


def test_flipping_the_env_var_between_two_matmuls_switches_tier(monkeypatch, request):
    """Selection is memoised, yet a changed ``REPRO_GF_BACKEND`` takes effect
    at the very next :func:`repro.gf.matmul`."""
    import repro.gf

    used = []

    class Probe(NumpyBackend):
        name = "flip-probe"

        def plane_matmul(self, mat, plane, field):
            used.append(self.name)
            return gf_matmul(mat, plane, field)

    numpy_tier = get_backend("numpy")
    real = numpy_tier.plane_matmul
    monkeypatch.setattr(
        numpy_tier, "plane_matmul",
        lambda mat, plane, field: used.append("numpy") or real(mat, plane, field),
    )
    monkeypatch.setattr(base, "_TIERS", (*base._TIERS, Probe()))  # last: never auto-selected
    request.addfinalizer(base._SELECTED.clear)
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 256, size=(2, 3)).astype(np.uint8)
    plane = rng.integers(0, 256, size=(3, 64)).astype(np.uint8)
    want = gf_matmul(mat, plane, GF(8))
    flips = ["numpy", "flip-probe", "numpy", "flip-probe"]
    for name in flips:
        monkeypatch.setenv(_ENV_VAR, name)
        assert np.array_equal(repro.gf.matmul(mat, plane, GF(8)), want)
    assert used == flips


def test_native_fallback_without_compiler(monkeypatch, tmp_path):
    """No compiler + no cached build = unavailable, never an exception."""
    import repro._cbuild as cbuild

    monkeypatch.setenv("REPRO_GF_NATIVE_CACHE", str(tmp_path / "empty"))
    monkeypatch.setattr(cbuild, "_find_compiler", lambda: None)
    nb = NativeBackend()  # fresh instance: the registered one may be probed
    assert nb.available() is False
    info = nb.build_info()
    assert info["available"] is False
    assert "compiler" in (info["error"] or "")
    with pytest.raises(RuntimeError, match="unavailable"):
        nb.plane_matmul(
            np.ones((1, 1), dtype=np.uint8), np.ones((1, 4), dtype=np.uint8), GF(8)
        )


def test_native_build_info_reports_cached_library():
    nb = get_backend("native")
    if not nb.available():
        pytest.skip("native backend unavailable on this host")
    info = nb.build_info()
    assert info["available"] is True
    assert info["path"] and os.path.exists(info["path"])
    assert info["error"] is None


# ------------------------------------------------------------------ #
# kernel differentials: every backend vs the reference and each other
# ------------------------------------------------------------------ #
def _random_case(rng, field):
    f = int(rng.integers(1, 6))
    k = int(rng.integers(1, 12))
    n = int(rng.integers(1, 5000))
    mat = rng.integers(0, field.size, size=(f, k)).astype(field.dtype)
    # force the special-cased coefficients into every sample
    mat.flat[rng.integers(0, mat.size)] = 0
    mat.flat[rng.integers(0, mat.size)] = 1
    plane = rng.integers(0, field.size, size=(k, n)).astype(field.dtype)
    return mat, plane


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("seed", SEEDS)
def test_backends_match_reference_and_each_other(w, seed):
    field = GF(w)
    rng = np.random.default_rng(seed)
    backends = [get_backend(n) for n in available_backends(w)]
    for _ in range(4):
        mat, plane = _random_case(rng, field)
        ref = gf_matmul(mat, plane, field)
        outs = {b.name: b.plane_matmul(mat, plane, field) for b in backends}
        for name, got in outs.items():
            assert got.dtype == field.dtype
            assert np.array_equal(ref, got), f"w={w} backend={name} diverged"


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33, 63, 64, 65, 1023])
def test_backend_odd_tails_and_empty_planes(w, n):
    """SIMD kernels process 32-element vectors; every tail length and the
    empty plane must round-trip exactly like the reference."""
    field = GF(w)
    rng = np.random.default_rng(n + w)
    mat = rng.integers(0, field.size, size=(3, 5)).astype(field.dtype)
    plane = rng.integers(0, field.size, size=(5, n)).astype(field.dtype)
    ref = gf_matmul(mat, plane, field) if n else np.zeros((3, 0), dtype=field.dtype)
    for name in available_backends(w):
        got = get_backend(name).plane_matmul(mat, plane, field)
        assert got.shape == (3, n)
        assert np.array_equal(ref, got), f"n={n} backend={name}"


@pytest.mark.parametrize("w", [8, 16])
def test_backend_zero_and_identity_matrices(w):
    field = GF(w)
    rng = np.random.default_rng(w)
    plane = rng.integers(0, field.size, size=(4, 777)).astype(field.dtype)
    zeros = np.zeros((2, 4), dtype=field.dtype)
    ident = np.eye(4, dtype=field.dtype)
    for name in available_backends(w):
        b = get_backend(name)
        assert not b.plane_matmul(zeros, plane, field).any()
        assert np.array_equal(b.plane_matmul(ident, plane, field), plane)


@pytest.mark.parametrize("w", [8, 16])
def test_backend_noncontiguous_plane(w):
    """Strided views (sharded column ranges) must decode identically."""
    field = GF(w)
    rng = np.random.default_rng(17 + w)
    mat = rng.integers(0, field.size, size=(2, 4)).astype(field.dtype)
    big = rng.integers(0, field.size, size=(4, 4000)).astype(field.dtype)
    view = big[:, 5:2501]
    ref = gf_matmul(mat, np.ascontiguousarray(view), field)
    for name in available_backends(w):
        assert np.array_equal(get_backend(name).plane_matmul(mat, view, field), ref)


@pytest.mark.parametrize("w", [8, 16])
def test_backend_shape_validation(w):
    field = GF(w)
    for name in available_backends(w):
        with pytest.raises(ValueError):
            get_backend(name).plane_matmul(
                np.zeros((2, 3), dtype=field.dtype),
                np.zeros((4, 5), dtype=field.dtype),
                field,
            )


# ------------------------------------------------------------------ #
# the rows form: k separate sources read in place, f fresh rows out
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def scalar_native(tmp_path_factory):
    """The native kernel built with the base flags only: no ``-march=native``,
    so every element goes through the scalar body (with AVX2 only the
    < 32-element tails do)."""
    import repro._cbuild as cbuild
    from repro.gf.backend import native

    if cbuild._find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    backend = NativeBackend()
    backend._kernel = cbuild.CLibrary(
        "gfkern", native._C_SOURCE, native._ABI_VERSION, [native._BASE_FLAGS], native._bind,
        python=True,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_GF_NATIVE_CACHE", str(tmp_path_factory.mktemp("scalar-gfkern")))
        info = backend.build_info()
    assert info["available"], info
    assert info["flags"] == native._BASE_FLAGS
    return backend


@pytest.fixture(
    params=sorted(
        {(w, n) for w in (8, 16) for n in available_backends(w)} | {(8, "scalar"), (16, "scalar")}
    ),
    ids=lambda c: f"w{c[0]}-{c[1]}",
)
def rows_backend(request):
    """(field, backend): every available tier, plus the scalar native build."""
    w, name = request.param
    if name == "scalar":
        return GF(w), request.getfixturevalue("scalar_native")
    return GF(w), get_backend(name)


def _rows_cases(rng, field):
    """(mat, rows) pairs over the shapes a kernel can get wrong."""
    def block(n):
        return rng.integers(0, field.size, size=n).astype(field.dtype)

    for f in range(1, 10):  # crosses the 4-row group, twice
        for n in (0, 1, 31, 33, 64, 95, 1000):
            k = int(rng.integers(1, 7))
            mat = rng.integers(0, field.size, size=(f, k)).astype(field.dtype)
            mat.flat[rng.integers(0, mat.size)] = 0
            mat.flat[rng.integers(0, mat.size)] = 1
            yield mat, [block(n) for _ in range(k)]
    n = 333
    base = block(4 * n + 7)
    base.setflags(write=False)
    shared = [base[:n], base[n : 2 * n], base[2 * n + 7 : 3 * n + 7]]  # one base array
    strided = [block(2 * n)[::2], base[1 : 2 * n + 1 : 2]]  # non-contiguous views
    once = block(n)
    for rows in (shared, strided, [once, once, shared[0]], [once]):  # one buffer twice, k = 1
        yield rng.integers(0, field.size, size=(5, len(rows))).astype(field.dtype), rows
    for coeff in (0, 1):
        yield np.full((3, 4), coeff, dtype=field.dtype), [block(100) for _ in range(4)]


def test_rows_form_matches_reference_and_allocates_apart(rows_backend):
    field, backend = rows_backend
    rng = np.random.default_rng(field.w)
    for mat, rows in _rows_cases(rng, field):
        before = [r.copy() for r in rows]
        out = backend.rows_matmul(mat, rows, field)
        want = _ref_matmul(mat, np.stack(rows), field)
        assert len(out) == mat.shape[0]
        for i, row in enumerate(out):
            assert row.dtype == field.dtype and row.shape == rows[0].shape
            assert np.array_equal(row, want[i]), (backend.name, mat.shape, rows[0].shape, i)
            assert row.flags.writeable and row.flags.c_contiguous
            if row.size:
                assert not any(np.shares_memory(row, r) for r in rows)
                assert not any(np.shares_memory(row, o) for o in out[:i])
        assert all(np.array_equal(r, b) for r, b in zip(rows, before)), "a source changed"


def test_rows_form_rejects_bad_sources_before_any_kernel(rows_backend, monkeypatch):
    """The compiled kernel reads N elements of every source unchecked: a bad
    source is a ValueError raised before any kernel body runs.  The native
    tier checks in its C entry, so there the entry itself must raise, with
    every destination it was handed still unwritten."""
    field, backend = rows_backend
    calls = []
    if isinstance(backend, NativeBackend):
        entry = backend._entry(field)

        def checked_entry(n, coeffs, srcs, dsts):
            for d in dsts:
                d.fill(0xA5)
            calls.append(dsts)
            entry(n, coeffs, srcs, dsts)
            raise AssertionError("the entry accepted a bad source")

        monkeypatch.setitem(backend._entries, field.w, checked_entry)
    else:
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel ran on unchecked sources")

        monkeypatch.setattr(backend, "plane_matmul", no_kernel)
    ok = np.zeros(64, dtype=field.dtype)
    other = np.uint16 if field.dtype == np.uint8 else np.uint8
    mat = np.ones((2, 2), dtype=field.dtype)
    for rows in (
        [ok, np.zeros(63, dtype=field.dtype)],  # unequal lengths
        [ok, np.zeros((2, 32), dtype=field.dtype)],  # 2-D
        [ok, np.zeros(64, dtype=other)],  # wrong dtype
        [ok, list(range(64))],  # not an array
        [ok],  # fewer rows than matrix columns
    ):
        with pytest.raises(ValueError):
            backend.rows_matmul(mat, rows, field)
    with pytest.raises(ValueError):
        backend.rows_matmul(np.ones((2, 0), dtype=field.dtype), [], field)
    if isinstance(backend, NativeBackend):
        assert len(calls) == 6
        assert all((d == field.dtype(0xA5)).all() for dsts in calls for d in dsts)


@pytest.mark.skipif("native" not in BACKENDS_8, reason="native tier not built here")
@pytest.mark.parametrize("w", [8, 16])
def test_native_entry_rejects_hostile_buffers_and_leaks_nothing(w):
    """The C entry checks every buffer before it reads a byte: each hostile
    call is a ValueError that leaves its destinations as they were, and no
    buffer it acquired stays held (a leaked ``Py_buffer`` would show as a
    refcount climb).  Read-only and strided sources give the NumPy tier's
    product."""
    field = GF(w)
    entry = get_backend("native")._entry(field)
    dt = field.dtype
    other = np.uint16 if dt == np.uint8 else np.uint8
    rng = np.random.default_rng(w)
    n = 100

    def block(size=n):
        return rng.integers(0, field.size, size=size).astype(dt)

    def sentinel(size=n):
        return np.full(size, 0xA5, dtype=dt)

    mat = rng.integers(1, field.size, size=(2, 3)).astype(dt)
    srcs = [block() for _ in range(3)]
    read_only = sentinel()
    read_only.setflags(write=False)
    hostile = {
        "short source": (mat, [srcs[0], srcs[1][:-1], srcs[2]], [sentinel(), sentinel()]),
        "short destination": (mat, srcs, [sentinel(), sentinel(n - 1)]),
        "read-only destination": (mat, srcs, [sentinel(), read_only]),
        "wrong itemsize": (mat, [srcs[0], np.zeros(n, dtype=other), srcs[2]], [sentinel(), sentinel()]),
        "wrong destination itemsize": (mat, srcs, [sentinel(), np.zeros(n, dtype=other)]),
        "2-D row": (mat, [srcs[0], np.zeros((1, n), dtype=dt), srcs[2]], [sentinel(), sentinel()]),
        "non-array": (mat, [srcs[0], list(range(n)), srcs[2]], [sentinel(), sentinel()]),
        "zero rows": (np.zeros((2, 0), dtype=dt), [], [sentinel(), sentinel()]),
        "matrix too narrow": (mat[:, :2].copy(), srcs, [sentinel(), sentinel()]),
    }
    for case, (m, s, d) in hostile.items():
        with pytest.raises(ValueError):
            entry(n, m, s, d)
        assert all(np.array_equal(x, sentinel(x.size)) for x in d if x.dtype == dt), case

    good = [np.empty(n, dtype=dt) for _ in range(2)]
    held = [mat, srcs, good, *srcs, *good]
    for m, s, d in hostile.values():
        held += [m, s, d, *s, *d]
    before = [sys.getrefcount(x) for x in held]
    for _ in range(1000):
        for m, s, d in hostile.values():
            try:
                entry(n, m, s, d)
            except ValueError:
                pass
            else:
                raise AssertionError("a hostile call was accepted")
        entry(n, mat, srcs, good)
    assert [sys.getrefcount(x) for x in held] == before
    want = gf_matmul(mat, np.stack(srcs), field)
    assert all(np.array_equal(g, r) for g, r in zip(good, want))

    frozen = [np.frombuffer(rng.bytes(n * field.dtype().itemsize), dtype=dt) for _ in range(3)]
    strided = [block(2 * n)[::2], block(3 * n)[1::3], frozen[0]]
    numpy_tier = get_backend("numpy")
    for rows in (frozen, strided):
        got = get_backend("native").rows_matmul(mat, rows, field)
        ref = numpy_tier.rows_matmul(mat, rows, field)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_matmul_rows_is_the_selected_backends_rows_form(monkeypatch):
    from repro.gf import matmul_rows

    field = GF(8)
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 256, size=(3, 4)).astype(np.uint8)
    rows = list(rng.integers(0, 256, size=(4, 77)).astype(np.uint8))
    for name in BACKENDS_8:
        monkeypatch.setenv(_ENV_VAR, name)
        out = matmul_rows(mat, rows, field)
        assert all(np.array_equal(o, w) for o, w in zip(out, gf_matmul(mat, np.stack(rows), field)))


# ------------------------------------------------------------------ #
# repair-path differentials: healthy and post-fault-storm
# ------------------------------------------------------------------ #
def _encode_batch(code, rng, stripes, ncols):
    field = code.field
    return [
        code.encode_stripe(
            rng.integers(0, field.size, size=(code.k, ncols)).astype(field.dtype)
        )
        for _ in range(stripes)
    ]


def _repair_outputs(code, full, lost, backend):
    surv = tuple(i for i in range(code.k + code.m) if i not in lost)[: code.k]
    items = [
        StripeBatchItem(
            stripe_id=s,
            survivors=surv,
            failed=tuple(lost),
            sources=[full[s][i] for i in surv],
        )
        for s in range(len(full))
    ]
    eng = BatchRepairEngine(code, backend=backend)
    res = eng.repair_items(items)
    return res.outputs


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_repair_differential_healthy_and_storm(w, seed):
    """Random (k, m, f, pattern, block-size) repair, every backend.

    Each round repairs the same batch twice: first with an f-wide pattern
    (healthy regime), then after a 'storm' widens the pattern to the full
    erasure budget m — both against the encoded ground truth.
    """
    rng = np.random.default_rng(seed)
    field = GF(w)
    k = int(rng.integers(2, 8))
    m = int(rng.integers(2, 5))
    code = RSCode(k, m, field=field)
    ncols = int(rng.integers(100, 2100))
    full = _encode_batch(code, rng, stripes=int(rng.integers(1, 5)), ncols=ncols)
    f = int(rng.integers(1, m + 1))
    healthy = tuple(sorted(rng.choice(k + m, size=f, replace=False).tolist()))
    storm = tuple(sorted(rng.choice(k + m, size=m, replace=False).tolist()))
    for lost in (healthy, storm):
        per_backend = {}
        for name in available_backends(w):
            outs = _repair_outputs(code, full, lost, name)
            for s in range(len(full)):
                for b in lost:
                    assert np.array_equal(outs[s][b], full[s][b]), (
                        f"w={w} backend={name} stripe={s} block={b}"
                    )
            per_backend[name] = outs
        first = next(iter(per_backend.values()))
        for name, outs in per_backend.items():
            for s in first:
                for b in first[s]:
                    assert np.array_equal(outs[s][b], first[s][b]), name


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("chunks", [2, 3, 7])
def test_decode_chunked_differential_across_backends(w, chunks):
    """Chunked degraded reads (chunks > 1) are bit-exact per backend."""
    rng = np.random.default_rng(23 + w + chunks)
    field = GF(w)
    code = RSCode(4, 3, field=field)
    ncols = 1001
    full = _encode_batch(code, rng, stripes=3, ncols=ncols)
    lost = (1, 5)
    surv = tuple(i for i in range(7) if i not in lost)[:4]
    stacked = np.stack([[full[s][i] for i in surv] for s in range(3)])
    ref = None
    for name in available_backends(w):
        eng = BatchRepairEngine(code, backend=name)
        out = decode_chunked(eng, surv, lost, stacked, chunks)
        for s in range(3):
            for j, b in enumerate(lost):
                assert np.array_equal(out[s, j], full[s][b]), f"{name} s={s} b={b}"
        if ref is None:
            ref = out
        else:
            assert np.array_equal(ref, out), name


def test_engine_reports_selected_backend(monkeypatch):
    monkeypatch.delenv(_ENV_VAR, raising=False)
    code = RSCode(4, 2)
    auto = BatchRepairEngine(code)
    assert auto.stats()["backend"] == available_backends(8)[0]
    pinned = BatchRepairEngine(code, backend="numpy")
    assert pinned.stats()["backend"] == "numpy"


def test_engine_honors_env_override(monkeypatch):
    monkeypatch.setenv(_ENV_VAR, "numpy")
    assert BatchRepairEngine(RSCode(4, 2)).stats()["backend"] == "numpy"


# ------------------------------------------------------------------ #
# the data-plane seam: every call site, every selectable backend
# ------------------------------------------------------------------ #
#: (word size, selection) pairs: each available tier forced through
#: ``REPRO_GF_BACKEND``, plus auto-selection on a host whose C compiler
#: (and build cache) is gone — the fallback nothing else in tier-1 runs.
SEAM_CASES = (
    [(8, n) for n in BACKENDS_8]
    + [(16, n) for n in BACKENDS_16]
    + [(8, "no-compiler"), (16, "no-compiler")]
)


@pytest.fixture(params=SEAM_CASES, ids=lambda c: f"w{c[0]}-{c[1]}")
def seam_field(request, monkeypatch, tmp_path):
    """A field whose seam (:func:`repro.gf.matmul`) runs the named tier."""
    import repro._cbuild as cbuild

    w, name = request.param
    if name == "no-compiler":
        monkeypatch.delenv(_ENV_VAR, raising=False)
        monkeypatch.setenv("REPRO_GF_NATIVE_CACHE", str(tmp_path / "empty"))
        monkeypatch.setattr(cbuild, "_find_compiler", lambda: None)
        fresh_native_tier(monkeypatch, request)
        assert "native" not in available_backends(w)
    else:
        monkeypatch.setenv(_ENV_VAR, name)
        assert select_backend(w).name == name
    return GF(w)


def _blocks(rng, field, rows, length, hostile=False):
    """Random block rows; ``hostile`` = non-contiguous and read-only views."""
    if not hostile:
        return rng.integers(0, field.size, size=(rows, length)).astype(field.dtype)
    big = rng.integers(0, field.size, size=(rows, 2 * length + 3)).astype(field.dtype)
    big.setflags(write=False)
    return big[:, 1 : 2 * length + 1 : 2]


def _ref_matmul(mat, plane, field):
    plane = np.ascontiguousarray(plane, dtype=field.dtype)
    if plane.shape[1] == 0:
        return np.zeros((mat.shape[0], 0), dtype=field.dtype)
    return gf_matmul(np.asarray(mat, dtype=field.dtype), plane, field)


#: block lengths: empty (a degenerate split fraction's slice), odd, SIMD
#: tails, and a few KiB.
LENGTHS = (0, 1, 7, 33, 640, 4099)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_seam_rs_encode_decode_match_reference(seam_field, seed):
    field = seam_field
    rng = np.random.default_rng(seed)
    for length in LENGTHS:
        k, m = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        f = int(rng.integers(1, m + 1))
        code = RSCode(k, m, field=field)
        data = _blocks(rng, field, k, length, hostile=bool(length % 2))
        parity = code.encode(data)
        assert parity.dtype == field.dtype
        assert np.array_equal(parity, _ref_matmul(code.generator[k:], data, field))
        rows = code.encode(list(data))  # the rows form reads the blocks in place
        assert len(rows) == m and all(np.array_equal(r, p) for r, p in zip(rows, parity))
        full = code.encode_stripe(data)
        assert np.array_equal(full[:k], data) and np.array_equal(full[k:], parity)

        failed = sorted(rng.choice(k + m, size=f, replace=False).tolist())
        available = {}
        for b in range(k + m):
            if b in failed:
                continue
            if b % 2 and length:  # same bytes, strided + read-only storage
                big = np.zeros(2 * length, dtype=field.dtype)
                big[::2] = full[b]
                big.setflags(write=False)
                available[b] = big[::2]
            else:
                available[b] = full[b]
        chosen = sorted(available)[:k]
        want = _ref_matmul(
            code.derive_repair_matrix(chosen, failed),
            np.stack([full[b] for b in chosen]),
            field,
        )
        got = code.decode(available, failed)
        for row, b in enumerate(failed):
            assert np.array_equal(got[b], want[row])
            assert np.array_equal(got[b], full[b])
        assert np.array_equal(code.decode_stripe(available), full)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_seam_lrc_and_combine_match_reference(seam_field, seed):
    from repro.ec.lrc import LRCCode

    field = seam_field
    rng = np.random.default_rng(seed)
    for length in LENGTHS:
        l = int(rng.integers(1, 4))
        k, g = l * int(rng.integers(1, 4)), int(rng.integers(1, 4))
        code = LRCCode(k, l, g, field=field)
        data = _blocks(rng, field, k, length, hostile=bool(length % 2))
        full = code.encode_stripe(data)
        assert np.array_equal(full[k:], _ref_matmul(code.generator[k:], data, field))
        failed = sorted(rng.choice(code.n, size=g + 1, replace=False).tolist())
        available = {b: full[b] for b in range(code.n) if b not in failed}
        try:
            got = code.decode(available, failed)
        except ValueError:  # g+1 erasures inside one group can be unrecoverable
            continue
        for b in failed:
            assert np.array_equal(got[b], full[b])

        n = int(rng.integers(1, 9))
        coeffs = rng.integers(0, field.size, size=n).tolist()
        coeffs[int(rng.integers(0, n))] = 0
        coeffs[int(rng.integers(0, n))] = 1
        rows = _blocks(rng, field, n, length, hostile=True)
        out = field.combine(coeffs, list(rows))
        assert out.shape == (length,) and out.dtype == field.dtype
        assert np.array_equal(out, _ref_matmul(np.array([coeffs]), rows, field)[0])
        acc = out.copy()
        assert field.addmul(acc, coeffs[0], rows[0]) is acc
        assert np.array_equal(acc ^ out, _ref_matmul(np.array([coeffs[:1]]), rows[:1], field)[0])


def _seam_system(field, k, m, f, block_bytes, seed):
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster
    from repro.system.coordinator import Coordinator

    rng = np.random.default_rng(seed)
    n_data = k + m + 3
    nodes = [
        Node(i, float(rng.uniform(40, 200)), float(rng.uniform(40, 200)))
        for i in range(n_data + f)
    ]
    coord = Coordinator(
        Cluster(nodes[:n_data]), RSCode(k, m, field=field),
        block_bytes=block_bytes, block_size_mb=8.0, rng=seed,
    )
    for node in nodes[n_data:]:
        coord.add_spare(node)
    coord.write("obj", rng.integers(0, 256, 3 * k * block_bytes - 5, dtype=np.uint8).tobytes())
    return coord, rng


def _stored_stripes(coord):
    from repro.ec.stripe import block_name

    return {
        s.stripe_id: np.stack(
            [coord.agents[n].read_block(block_name(s.stripe_id, b)) for b, n in enumerate(s.placement)]
        )
        for s in coord.layout
    }


def _assert_reference_parity(coord, stripes):
    k = coord.code.k
    for sid, blocks in stripes.items():
        want = _ref_matmul(coord.code.generator[k:], blocks[:k], coord.code.field)
        assert np.array_equal(blocks[k:], want), f"stripe {sid} parity drifted"


@pytest.mark.parametrize("scheme", ["hmbr", "cr", "ir", "mlf"])
def test_seam_per_stripe_repair_rebuilds_reference_bytes(seam_field, scheme):
    """A full non-batched repair: agent combines, verify, commit — all seam."""
    from repro.system.request import RepairRequest

    k, m, f = 5, 3, 2
    coord, rng = _seam_system(seam_field, k, m, f, block_bytes=1 << 10, seed=len(scheme))
    before = _stored_stripes(coord)
    _assert_reference_parity(coord, before)
    for v in rng.choice(coord.data_nodes(), size=f, replace=False):
        coord.crash_node(int(v))
    result = coord.repair(RepairRequest(scheme=scheme))
    assert result.ok and result.blocks_recovered > 0
    after = _stored_stripes(coord)
    for sid in before:
        assert np.array_equal(after[sid], before[sid]), f"stripe {sid} rebuilt wrong"
    assert all(coord.scrub().values())


def test_seam_update_keeps_reference_parity(seam_field):
    coord, rng = _seam_system(seam_field, 4, 3, 0, block_bytes=512, seed=5)
    for _ in range(6):
        offset = int(rng.integers(0, 3 * 4 * 512 - 5 - 700))
        patch = rng.integers(0, 256, int(rng.integers(1, 700)), dtype=np.uint8).tobytes()
        coord.update("obj", offset, patch)
    _assert_reference_parity(coord, _stored_stripes(coord))
    assert all(coord.scrub().values())


def test_seam_verify_catches_a_corrupt_rebuilt_block(seam_field, monkeypatch):
    """One flipped byte in a rebuilt block, before commit: repair refuses."""
    from repro.system.coordinator import Coordinator
    from repro.system.request import RepairRequest

    coord, rng = _seam_system(seam_field, 5, 3, 2, block_bytes=1 << 10, seed=11)
    for v in rng.choice(coord.data_nodes(), size=2, replace=False):
        coord.crash_node(int(v))
    victim = sorted(coord.layout.stripes_with_failures(coord.cluster.dead_ids()))[-1]
    commit = Coordinator.commit_outputs

    def corrupting_commit(self, sid, outputs, verify=True):
        if sid == victim:
            node, buf = next(iter(outputs.values()))
            bad = self.agents[node].scratch[buf].copy()
            bad[17] ^= 0x40
            self.agents[node].scratch[buf] = bad
        return commit(self, sid, outputs, verify)

    monkeypatch.setattr(Coordinator, "commit_outputs", corrupting_commit)
    with pytest.raises(AssertionError, match=f"stripe {victim} failed"):
        coord.repair(RepairRequest(scheme="cr"))


def test_seam_scrub_flags_exactly_the_corrupt_stripe(seam_field):
    from repro.ec.stripe import block_name

    coord, rng = _seam_system(seam_field, 4, 2, 0, block_bytes=512, seed=13)
    stripes = coord.layout.stripes
    victim = stripes[int(rng.integers(0, len(stripes)))]
    b = int(rng.integers(0, victim.n))
    agent = coord.agents[victim.placement[b]]
    bad = agent.read_block(block_name(victim.stripe_id, b)).copy()
    bad[int(rng.integers(0, bad.size))] ^= 1
    agent.store_block(block_name(victim.stripe_id, b), bad, overwrite=True)
    health = coord.scrub()
    assert [sid for sid, ok in health.items() if not ok] == [victim.stripe_id]
