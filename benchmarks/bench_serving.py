"""Online serving-plane bench: degraded-read latency vs repair makespan.

One seeded workload (zipf reads + writes, open-loop Poisson arrivals) is
served several ways on identically-seeded fresh systems:

* **healthy** — no failures;
* **degraded** — two dead nodes, reads decode lost blocks on the fly;
* **pipeline sweep** — the same two losses at a deliberately slow decode
  (so the surcharge dominates), served at ``chunks`` in {1, 2, 4, 8}:
  the degraded-p99 / healthy-p99 ratio falls toward 1 as chunked decode
  overlaps the survivor fetches (ISSUE 7);
* **storm / weighted** — same failures plus a whole-cluster
  repair at background weight (0.25) against foreground flows at 4.0;
* **storm / equal** — the same storm with everything contending at 1.0.

All latencies and makespans are *simulated* seconds (deterministic; wall
clock is recorded separately), so the artifact pins the paper-level
tradeoff exactly: weighted sharing protects foreground p99
(``speedup_x = p99_equal / p99_weighted``) at the price of a longer
repair makespan (``repair_slowdown_x``).  Points land in
``BENCH_serving.json`` (suite ``online-serving-plane``), validated by
``tools/check_bench_schema.py`` and uploaded by the CI bench-smoke job.

Plain test functions (no pytest-benchmark fixture) so the smoke job can
run them without the plugin installed; ``BENCH_SMOKE=1`` shrinks the
trace.
"""

import os
import time

from benchmarks.conftest import record_point
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from repro.workload import ServingPlane, WorkloadSpec

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

K, M = 4, 2
BLOCK_BYTES = 1 << 12
N_OBJECTS = 6 if SMOKE else 10
DURATION_S = 5.0 if SMOKE else 10.0
RATE_OPS_S = 6.0 if SMOKE else 8.0

SPEC = WorkloadSpec(
    n_objects=N_OBJECTS,
    object_bytes=2 * K * BLOCK_BYTES,
    duration_s=DURATION_S,
    rate_ops_s=RATE_OPS_S,
    read_fraction=0.9,
    write_bytes=256,
    seed=20230717,
)
_PARAMS = {
    "k": K, "m": M, "block_bytes": BLOCK_BYTES, "objects": N_OBJECTS,
    "duration_s": DURATION_S, "rate_ops_s": RATE_OPS_S, "smoke": SMOKE,
}


def _serve(*, foreground_weight=4.0, kill=0, repair=(), chunks=1,
           decode_mbps=1024.0, fast_path=True):
    """One fresh seeded system serving SPEC; returns (result, wall_s)."""
    coord = Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(14)]),
        RSCode(K, M),
        block_bytes=BLOCK_BYTES,
        block_size_mb=48.0,
        rng=4242,
        heartbeat_timeout=5.0,
    )
    for j in range(6):
        coord.add_spare(Node(14 + j, 100.0, 100.0))
    plane = ServingPlane(
        coord, SPEC, foreground_weight=foreground_weight, chunks=chunks,
        decode_mbps=decode_mbps, fast_path=fast_path,
    )
    plane.provision()
    if kill:
        stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
        for v in stripe0.placement[:kill]:
            coord.crash_node(v)
    t0 = time.perf_counter()
    res = plane.run(repair=repair)
    return res, time.perf_counter() - t0


def _point(bench, res, wall_s, **extra):
    metrics = {
        "read_p50_s": res.latency.get("p50", 0.0),
        "read_p99_s": res.latency.get("p99", 0.0),
        "degraded_p99_s": res.latency_degraded.get("p99", 0.0),
        "degraded_reads": res.degraded_reads,
        "failed_reads": res.failed_reads,
        "foreground_mb": res.foreground_bytes / 1e6,
        "makespan_s": res.makespan_s,
        "wall_s": wall_s,
    }
    metrics.update(extra)
    record_point("serving", bench, params=_PARAMS, metrics=metrics)


def test_serving_healthy_and_degraded_regimes():
    """Baselines: healthy reads, then on-the-fly decode under two losses."""
    healthy, wall_h = _serve()
    assert healthy.degraded_reads == 0 and healthy.failed_reads == 0
    _point("serving.healthy", healthy, wall_h)

    degraded, wall_d = _serve(kill=2)
    assert degraded.degraded_reads > 0 and degraded.failed_reads == 0
    # the decode surcharge shows up against the same run's healthy reads
    assert (
        degraded.latency_degraded["p99"] >= degraded.latency_healthy["p99"]
    )
    _point("serving.degraded", degraded, wall_d)


#: the pipeline sweep's chunk grid and its deliberately slow GF decode
#: (MB/s) — slow enough that the decode surcharge dominates degraded p99,
#: so overlapping it against the survivor fetches is clearly visible.
SWEEP_CHUNKS = (1, 2, 4, 8)
SWEEP_DECODE_MBPS = 16.0


def test_serving_pipeline_chunk_sweep():
    """Chunked decode closes the degraded/healthy p99 gap monotonically."""
    ratios: dict[int, float] = {}
    p99_by_chunks: dict[int, float] = {}
    saved: dict[int, float] = {}
    wall = 0.0
    for c in SWEEP_CHUNKS:
        res, wall_c = _serve(kill=2, chunks=c, decode_mbps=SWEEP_DECODE_MBPS)
        wall += wall_c
        assert res.degraded_reads > 0 and res.failed_reads == 0
        ratios[c] = res.latency_degraded["p99"] / res.latency_healthy["p99"]
        p99_by_chunks[c] = res.latency_degraded["p99"]
        saved[c] = res.pipeline_saved_s
        _point(
            f"serving.pipeline_c{c}", res, wall_c,
            chunks=c, pipeline_saved_s=res.pipeline_saved_s,
            degraded_over_healthy_p99=ratios[c],
        )
    # more chunks -> more fetch/decode overlap -> the ratio falls toward 1
    for a, b in zip(SWEEP_CHUNKS, SWEEP_CHUNKS[1:]):
        assert ratios[b] < ratios[a], f"ratio must fall: c{a}->{b}"
    assert min(ratios.values()) >= 1.0 - 1e-9, "degraded never beats healthy"
    assert saved[1] == 0.0 and all(saved[c] > 0.0 for c in SWEEP_CHUNKS[1:])

    metrics = {f"p99_ratio_c{c}": ratios[c] for c in SWEEP_CHUNKS}
    metrics.update(
        {
            # the headline: degraded p99 saved by the widest pipeline
            "speedup_x": p99_by_chunks[SWEEP_CHUNKS[0]]
            / p99_by_chunks[SWEEP_CHUNKS[-1]],
            "decode_mbps": SWEEP_DECODE_MBPS,
            "pipeline_saved_s_cmax": saved[SWEEP_CHUNKS[-1]],
            "wall_s": wall,
        }
    )
    record_point("serving", "serving.chunk_sweep", params=_PARAMS, metrics=metrics)


def test_serving_storm_policy_tradeoff():
    """The artifact's headline: weighted sharing protects foreground p99."""
    storm = (RepairRequest(scheme="hmbr", priority="background"),)
    weighted, wall_w = _serve(foreground_weight=4.0, kill=2, repair=storm)
    equal, wall_e = _serve(
        foreground_weight=1.0,
        kill=2,
        repair=(RepairRequest(scheme="hmbr", weight=1.0),),
    )
    for res in (weighted, equal):
        assert res.repair is not None and not res.repair.failed
        assert res.degraded_reads > 0

    p99_w, p99_e = weighted.latency["p99"], equal.latency["p99"]
    rm_w = weighted.repair.jobs[0].makespan_s
    rm_e = equal.repair.jobs[0].makespan_s
    assert p99_w < p99_e, "weighted sharing must protect foreground p99"

    _point("serving.storm_weighted", weighted, wall_w, repair_makespan_s=rm_w)
    _point("serving.storm_equal", equal, wall_e, repair_makespan_s=rm_e)
    record_point(
        "serving", "serving.policy_tradeoff",
        params=_PARAMS,
        metrics={
            # the protection: how much foreground p99 the weighted policy saves
            "speedup_x": p99_e / p99_w,
            # its price: how much longer the storm's repair takes for it
            "repair_slowdown_x": rm_w / rm_e,
            "p99_weighted_s": p99_w,
            "p99_equal_s": p99_e,
            "repair_makespan_weighted_s": rm_w,
            "repair_makespan_equal_s": rm_e,
            "wall_s": wall_w + wall_e,
        },
    )
