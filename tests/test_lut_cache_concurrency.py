"""Thread-safety regression for the module-level scale-LUT cache.

`repro.gf.batch._LUT_CACHE` is a bounded LRU ``OrderedDict`` shared by
every batch kernel call; before ISSUE 9 it was mutated with no lock.
Concurrent wave dispatch (and the serving plane's thread fan-out) could
interleave ``move_to_end`` / insert / ``popitem`` and corrupt the dict —
the exact hazard the PlanCache lock closed in ``repro.repair.batch``,
one layer further down.

The stress test shrinks the capacity so eviction churns constantly,
hammers ``_scale_lut`` from many threads over an overlapping coefficient
set, mixes in concurrent locked clears of the cache, and asserts every
returned table is still bit-perfect.  Pre-fix this raced KeyError /
RuntimeError or corrupted the LRU order; with the lock it must be silent.
"""

import threading

import numpy as np
import pytest

import repro.gf.batch as batch_mod
from repro.gf import GF

scale_lut = batch_mod._scale_lut


def lut_cache_clear():
    with batch_mod._LUT_CACHE_LOCK:
        batch_mod._LUT_CACHE.clear()


@pytest.fixture(autouse=True)
def _fresh_cache():
    lut_cache_clear()
    yield
    lut_cache_clear()


def _expected_tables(field, coeffs):
    """Independently-built ground truth for every stressed coefficient."""
    want = {}
    for c in coeffs:
        if field.w == 8:
            lut8 = np.zeros(256, dtype=np.uint16)
            lut8[: field.size] = field.mul_table[c]
            want[c] = np.add.outer(lut8 << 8, lut8).ravel()
        else:
            xs = np.arange(field.size, dtype=field.dtype)
            want[c] = field.mul(c, xs)
    return want


@pytest.mark.parametrize("w", [8, 16])
def test_scale_lut_survives_threaded_churn(monkeypatch, w):
    field = GF(w)
    # capacity far below the working set => continuous LRU eviction
    monkeypatch.setattr(batch_mod, "_LUT_CACHE_CAPACITY", 4)
    coeffs = list(range(2, 34))
    want = _expected_tables(field, coeffs)

    n_threads = 8
    iterations = 60
    errors: list[BaseException] = []
    start = threading.Barrier(n_threads + 1)

    def hammer(tid: int) -> None:
        rng = np.random.default_rng(tid)
        try:
            start.wait()
            for i in range(iterations):
                c = int(rng.choice(coeffs))
                lut = scale_lut(field, c)
                if not np.array_equal(lut, want[c]):
                    raise AssertionError(f"thread {tid}: wrong table for c={c}")
                if tid == 0 and i % 16 == 7:
                    # an unlucky clear mid-churn must never corrupt results
                    lut_cache_clear()
        except BaseException as exc:  # noqa: BLE001 - collected for the main thread
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    start.wait()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "stress thread hung"
    assert not errors, errors[0]
    # the cache itself must still be a coherent, bounded OrderedDict
    with batch_mod._LUT_CACHE_LOCK:
        assert len(batch_mod._LUT_CACHE) <= 4
        for (cw, c), lut in batch_mod._LUT_CACHE.items():
            assert cw == w
            assert np.array_equal(lut, want[c])


def test_first_builder_wins_identity_under_contention():
    """`scale_lut(f, c) is scale_lut(f, c)` even when threads race the build."""
    field = GF(8)
    n_threads = 8
    got: list[np.ndarray] = []
    lock = threading.Lock()
    start = threading.Barrier(n_threads)

    def build() -> None:
        start.wait()
        lut = scale_lut(field, 99)
        with lock:
            got.append(lut)

    threads = [threading.Thread(target=build) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(got) == n_threads
    first = got[0]
    assert all(lut is first for lut in got), "racing builders returned distinct tables"
