"""Reed-Solomon codec throughput benchmarks, incl. the batched repair path.

The ``batched`` tests time per-stripe ``code.decode`` against
:class:`repro.repair.batch.BatchRepairEngine` on a 16-stripe node-failure
batch (same kernel backend on both sides, so the ratio is what stacking
saves in dispatch) and record a perf-trajectory point into
``BENCH_batch.json`` — the selected GF kernel backend lands in the
artifact's ``env`` block, and the ``batched_backend`` test additionally
pits the native C tier against the NumPy tier on the same workload (>= 5x
is the full-fidelity acceptance floor, enforced here and re-checked by
``tools/check_bench_schema.py``).
``encode_seam`` pins what the write path and post-repair verify pay: one
RS(32,8) parity encode of 64 KiB blocks through the data-plane seam
(:func:`repro.gf.matmul`, the selected backend) against the ``gf_matmul``
LUT reference it replaced there (>= 4x full-fidelity, same two gates).
``BENCH_SMOKE=1`` shrinks sizes (and drops the speedup floors) so CI can
run them as a smoke test on shared runners.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import attach, record_point, set_env
from repro.ec.rs import get_code
from repro.gf import gf_matmul
from repro.gf.backend import available_backends, get_backend, select_backend
from repro.repair.batch import BatchRepairEngine, StripeBatchItem

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: the full-fidelity floor for the native tier vs NumPy on GF(2^8); the
#: schema check re-asserts this from the committed artifact.
NATIVE_SPEEDUP_FLOOR = 5.0

#: the full-fidelity floor for a seam encode vs the ``gf_matmul`` reference
#: (the NumPy fallback alone measures ~4.4x); re-asserted by the schema check.
ENCODE_SEAM_FLOOR = 4.0


def stripe_inputs(k, block_bytes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, block_bytes), dtype=np.uint8)


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("w", [8, 16])
def test_batched_repair_speedup_f4(w):
    """16 same-pattern stripes, f=4: one plane matmul vs 16 decodes.

    Both sides run the selected kernel backend since ``RSCode.decode``
    moved onto the data-plane seam (the 3x floor this test used to hold
    measured the LUT reference path per-stripe decode no longer takes), so
    what is left is dispatch amortization: batching must not lose.  The
    GF(2^8) configuration is the gate in full mode; GF(2^16) is recorded
    for the trajectory without a hard floor.
    """
    k, m, f, n_stripes = 8, 4, 4, 16
    block = (1 << 12) if SMOKE else (1 << 16)
    repeats = 2 if SMOKE else 5
    code = get_code(k, m, w)
    rng = np.random.default_rng(20230717)
    failed = [1, 4, 6, 11][:f]
    survivors = [i for i in range(code.n) if i not in failed][:k]
    stripes = []
    for _ in range(n_stripes):
        data = rng.integers(0, code.field.size, size=(k, block)).astype(code.field.dtype)
        stripes.append(code.encode_stripe(data))

    def per_stripe():
        return [
            code.decode({i: s[i] for i in survivors}, list(failed)) for s in stripes
        ]

    engine = BatchRepairEngine(code)
    items = [
        StripeBatchItem(
            stripe_id=sid,
            survivors=tuple(survivors),
            failed=tuple(failed),
            sources=[s[i] for i in survivors],
        )
        for sid, s in enumerate(stripes)
    ]

    expected = per_stripe()  # also warms the per-stripe repair-matrix memo
    res = engine.repair_items(items)  # warms the plan cache
    for fb in failed:  # bit-exactness spot check before timing
        assert np.array_equal(res.outputs[0][fb], expected[0][fb])

    t_single = _best_of(per_stripe, repeats)
    t_batch = _best_of(lambda: engine.repair_items(items), repeats)
    speedup = t_single / t_batch
    nbytes = n_stripes * k * block * code.field.dtype().itemsize
    set_env("batch", backend=engine.stats()["backend"])
    record_point(
        "batch", f"ec_codec.batched_repair.gf{w}",
        params={
            "k": k, "m": m, "f": f, "stripes": n_stripes,
            "block_symbols": block, "field_w": w, "smoke": SMOKE,
            "backend": engine.stats()["backend"],
        },
        metrics={
            "per_stripe_s": t_single,
            "batched_s": t_batch,
            "speedup_x": speedup,
            "batched_MBps": nbytes / t_batch / 2**20,
            "plan_hit_rate": engine.stats()["hit_rate"],
        },
    )
    if w == 8 and not SMOKE:
        assert speedup >= 1.0, f"batched GF(2^8) repair only {speedup:.2f}x"
    else:
        assert speedup > 0.0


@pytest.mark.parametrize("w", [8, 16])
def test_batched_backend_tiers_f4(w):
    """The pluggable-kernel gate: native >= 5x NumPy on the same batch.

    Runs the exact 16-stripe f=4 decode of ``test_batched_repair_speedup_f4``
    once per registered-and-available backend, records each tier's
    ``decode_mbps`` trajectory point, and — full-fidelity, GF(2^8) — holds
    the native tier to :data:`NATIVE_SPEEDUP_FLOOR` over the NumPy tier.
    All tiers are asserted bit-identical before timing.
    """
    k, m, f, n_stripes = 8, 4, 4, 16
    block = (1 << 12) if SMOKE else (1 << 16)
    repeats = 2 if SMOKE else 5
    code = get_code(k, m, w)
    rng = np.random.default_rng(20230717)
    failed = [1, 4, 6, 11][:f]
    survivors = [i for i in range(code.n) if i not in failed][:k]
    stripes = []
    for _ in range(n_stripes):
        data = rng.integers(0, code.field.size, size=(k, block)).astype(code.field.dtype)
        stripes.append(code.encode_stripe(data))
    items = [
        StripeBatchItem(
            stripe_id=sid,
            survivors=tuple(survivors),
            failed=tuple(failed),
            sources=[s[i] for i in survivors],
        )
        for sid, s in enumerate(stripes)
    ]
    nbytes = n_stripes * k * block * code.field.dtype().itemsize

    decode_s: dict[str, float] = {}
    reference = None
    for name in available_backends(w):
        engine = BatchRepairEngine(code, backend=name)
        res = engine.repair_items(items)  # warm plan cache + backend LUTs
        if reference is None:
            reference = res.outputs
        else:  # every tier must produce the same bytes before we time it
            for sid in (0, n_stripes - 1):
                for fb in failed:
                    assert np.array_equal(res.outputs[sid][fb], reference[sid][fb])
        decode_s[name] = _best_of(lambda: engine.repair_items(items), repeats)

    assert "numpy" in decode_s
    for name, t in decode_s.items():
        record_point(
            "batch", f"ec_codec.backend_{name}.gf{w}",
            params={
                "k": k, "m": m, "f": f, "stripes": n_stripes,
                "block_symbols": block, "field_w": w, "smoke": SMOKE,
                "backend": name,
            },
            metrics={
                "decode_s": t,
                "decode_mbps": nbytes / t / 2**20,
                "vs_numpy_x": decode_s["numpy"] / t,
            },
        )
    if "native" not in decode_s:
        pytest.skip("native backend unavailable on this host (no compiler)")
    native_x = decode_s["numpy"] / decode_s["native"]
    if w == 8 and not SMOKE:
        assert native_x >= NATIVE_SPEEDUP_FLOOR, (
            f"native GF(2^8) tier only {native_x:.2f}x vs numpy"
        )
    else:
        assert native_x > 0.0


def test_encode_seam_vs_reference():
    """RS(32,8) parity encode, 64 KiB blocks: the seam vs the LUT reference.

    This is the product the write path runs per stripe and post-repair
    verify / scrub re-run per stripe; before the seam it went through
    ``gf_matmul``'s 3-D ``GF.mul`` gather.
    """
    k, m = 32, 8
    block = (1 << 12) if SMOKE else (1 << 16)
    repeats = 2 if SMOKE else 5
    code = get_code(k, m)
    data = stripe_inputs(k, block, seed=32)
    parity = code.encode(data)  # warms the backend's tables
    reference = gf_matmul(code.generator[k:], data, code.field)
    assert np.array_equal(parity, reference)

    t_seam = _best_of(lambda: code.encode(data), repeats)
    t_ref = _best_of(lambda: gf_matmul(code.generator[k:], data, code.field), repeats)
    backend = select_backend(code.field.w).name
    set_env("batch", backend=backend)
    record_point(
        "batch", "ec_codec.encode_seam.gf8",
        params={
            "k": k, "m": m, "block_symbols": block, "field_w": 8,
            "smoke": SMOKE, "backend": backend,
        },
        metrics={
            "encode_s": t_seam,
            "encode_mbps": data.nbytes / t_seam / 2**20,
            "reference_mbps": data.nbytes / t_ref / 2**20,
            "vs_reference_x": t_ref / t_seam,
        },
    )
    if not SMOKE:
        assert t_ref / t_seam >= ENCODE_SEAM_FLOOR, (
            f"seam encode only {t_ref / t_seam:.2f}x the gf_matmul reference"
        )


@pytest.mark.parametrize("k,m", [(6, 3), (64, 8)])
def test_encode_throughput(benchmark, k, m):
    code = get_code(k, m)
    data = stripe_inputs(k, 1 << 18)
    parity = benchmark(code.encode, data)
    assert parity.shape == (m, 1 << 18)
    attach(benchmark, data_MB=k * (1 << 18) / 2**20)


@pytest.mark.parametrize("k,m,f", [(6, 3, 3), (64, 8, 8)])
def test_decode_throughput(benchmark, k, m, f):
    code = get_code(k, m)
    data = stripe_inputs(k, 1 << 17, seed=1)
    stripe = code.encode_stripe(data)
    dead = list(range(f))
    avail = {i: stripe[i] for i in range(f, k + m)}

    out = benchmark(code.decode, avail, dead)
    for d in dead:
        assert np.array_equal(out[d], stripe[d])


def test_repair_matrix_setup_cost(benchmark):
    """Repair-matrix derivation for a wide stripe (the uncached slow path)."""
    code = get_code(64, 16)
    r = benchmark(code.derive_repair_matrix, list(range(16, 80)), list(range(8)))
    assert r.shape == (8, 64)


def test_repair_matrix_cache_hit(benchmark):
    code = get_code(64, 16)
    code.repair_matrix(list(range(16, 80)), list(range(8)))  # warm
    r = benchmark(code.repair_matrix, list(range(16, 80)), list(range(8)))
    assert r.shape == (8, 64)
