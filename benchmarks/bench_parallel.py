"""Parallel repair data-plane bench: pooled decode versus the serial engine.

The headline test repairs a 16-stripe same-pattern batch (f=4, GF(2^16))
three ways — a per-stripe serial ``code.decode``,
the inline :class:`~repro.repair.batch.BatchRepairEngine`, and the pooled
:class:`~repro.parallel.ParallelRepairEngine` at ``workers=4`` — asserts
the pooled output bit-exact against the serial one, and requires the pool
to finish >= 2x faster than the per-stripe baseline (full mode).  A second
test records the deterministic chunk-pipelining model's savings, a third
the inline and the pooled kernel on the one-stripe planes a repair round
forms (the evidence for rounds combining inline; no floor).  Points
land in ``BENCH_parallel.json`` (suite ``parallel-repair-data-plane``),
validated by ``tools/check_bench_schema.py`` in CI.

Plain test functions (no pytest-benchmark fixture) so the smoke job can run
them without the plugin installed; ``BENCH_SMOKE=1`` shrinks the shape and
drops the speedup floor.
"""

import os
import time

import numpy as np

from benchmarks.conftest import record_point, set_env
from repro.ec.rs import get_code
from repro.gf import matmul
from repro.parallel import ParallelRepairEngine, WorkerPool, pipeline_schedule
from repro.repair.batch import BatchRepairEngine, StripeBatchItem

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

W = 16
K, M = (8, 4) if SMOKE else (64, 8)
F = 4
N_STRIPES = 16
BLOCK = (1 << 12) if SMOKE else (1 << 14)
WORKERS = 2 if SMOKE else 4
REPEATS = 1 if SMOKE else 2


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _make_batch(code, seed=20230717):
    """N_STRIPES same-pattern stripes plus their survivors/failed lists."""
    rng = np.random.default_rng(seed)
    failed = [1, 4, 6, 11][:F]
    survivors = [i for i in range(code.n) if i not in failed][: code.k]
    stripes = []
    for _ in range(N_STRIPES):
        data = rng.integers(0, code.field.size, size=(code.k, BLOCK)).astype(
            code.field.dtype
        )
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
    return stripes, survivors, failed, items


def test_pooled_decode_speedup_vs_serial():
    """The acceptance gate: pooled workers=4 beats per-stripe serial >= 2x.

    The per-stripe baseline is ``code.decode`` per stripe, rebuilding the
    GF(2^16) scale LUTs per call.  The pool amortizes those LUTs across one plane matmul
    per pattern group, which is where the wall-clock win comes from even on
    a single core; the inline batched engine is recorded alongside so the
    trajectory shows both effects.
    """
    code = get_code(K, M, W)
    stripes, survivors, failed, items = _make_batch(code)

    def per_stripe():
        return [
            code.decode({i: s[i] for i in survivors}, list(failed)) for s in stripes
        ]

    serial_engine = BatchRepairEngine(code)
    with ParallelRepairEngine(code, workers=WORKERS) as engine:
        # Warm every path (field tables, plan caches, forked workers) and
        # pin bit-exactness before timing anything.
        expected = per_stripe()
        serial_engine.repair_items(items)
        res = engine.repair_items(items)
        for sid in range(N_STRIPES):
            for fb in failed:
                assert np.array_equal(res.outputs[sid][fb], expected[sid][fb])

        t_single = _best_of(per_stripe, REPEATS)
        t_inline = _best_of(lambda: serial_engine.repair_items(items), REPEATS)
        t_pooled = _best_of(lambda: engine.repair_items(items), REPEATS)
        stats = engine.stats()
        set_env("parallel", backend=stats["backend"])

    speedup = t_single / t_pooled
    record_point(
        "parallel", f"parallel.pooled_decode.gf{W}",
        params={
            "k": K, "m": M, "f": F, "stripes": N_STRIPES,
            "block_symbols": BLOCK, "field_w": W, "workers": WORKERS,
            "smoke": SMOKE,
        },
        metrics={
            "per_stripe_s": t_single,
            "batched_inline_s": t_inline,
            "pooled_s": t_pooled,
            "speedup_x": speedup,
            "pool_dispatches": stats["pool_dispatches"],
            "worker_utilization": stats["pool_utilization"],
        },
    )
    if SMOKE:
        assert speedup > 0.0
    else:
        assert speedup >= 2.0, f"pooled repair only {speedup:.2f}x vs per-stripe"


def test_pipeline_model_savings():
    """Chunk pipelining: staggered flow landings overlap decode with
    transfer, so the pipelined makespan beats the wave barrier."""
    n = N_STRIPES
    ready = [0.25 * i for i in range(n)]
    cost = [1.0] * n
    rep = pipeline_schedule(list(range(n)), ready, cost, workers=WORKERS)
    assert rep.makespan_s < rep.barrier_makespan_s
    assert rep.saved_s > 0.0
    record_point(
        "parallel", "parallel.pipeline_model",
        params={"items": n, "workers": WORKERS, "smoke": SMOKE},
        metrics={
            "pipelined_makespan_s": rep.makespan_s,
            "barrier_makespan_s": rep.barrier_makespan_s,
            "saved_s": rep.saved_s,
            "speedup_x": rep.barrier_makespan_s / rep.makespan_s,
        },
    )


def test_per_stripe_plane_inline_vs_pooled():
    """Why repair rounds combine inline: one stripe's plane, the largest
    product ``run_plan_ops`` ever forms, through ``repro.gf.matmul`` and
    through a warm pool.  Shapes are ``wide_repair``'s (k=32, f=4, 64 KiB
    blocks): CR's fused center product and one row of it."""
    code = get_code(32, 8, 8)
    field = code.field
    n = (1 << 12) if SMOKE else (1 << 16)
    workers = 2
    rng = np.random.default_rng(20230717)
    plane = rng.integers(0, field.size, size=(code.k, n)).astype(field.dtype)
    with WorkerPool(workers=workers) as pool:
        for rows in (F, 1):
            mat = rng.integers(1, field.size, size=(rows, code.k)).astype(field.dtype)
            expected = matmul(mat, plane, field)
            assert np.array_equal(pool.decode_plane(mat, plane, field)[0], expected)
            t_inline = _best_of(lambda: matmul(mat, plane, field), 5)
            t_pooled = _best_of(lambda: pool.decode_plane(mat, plane, field), 5)
            record_point(
                "parallel", f"parallel.per_stripe_plane.rows{rows}",
                params={
                    "k": code.k, "rows": rows, "block_symbols": n, "field_w": 8,
                    "workers": workers, "smoke": SMOKE,
                },
                metrics={
                    "inline_s": t_inline,
                    "pooled_s": t_pooled,
                    "pooled_over_inline_x": t_pooled / t_inline,
                },
            )
