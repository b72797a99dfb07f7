"""Concurrent repair-scheduler bench: throughput versus admitted concurrency.

Jobs repair disjoint stripe groups placed on disjoint node sets
(contention-free), so admitting ``c`` jobs per wave should cut the
aggregate simulated makespan roughly ``c``-fold — waves serialize on the
scheduler's global clock, flows within a wave run in parallel.  The bench
sweeps the ``max_inflight_total`` admission cap over 1/2/4 and records
jobs/sec (on simulated time) and aggregate makespan per concurrency level
into ``BENCH_sched.json`` (suite ``concurrent-repair-scheduler``), the
artifact CI validates with ``tools/check_bench_schema.py`` and uploads.

Plain test functions (no pytest-benchmark fixture) so the smoke job can run
them without the plugin installed; ``BENCH_SMOKE=1`` shrinks the shape.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import record_point
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe, block_name
from repro.sched.admission import AdmissionPolicy
from repro.sched.scheduler import RepairScheduler
from repro.system.coordinator import Coordinator

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

K, M = 4, 2
WIDTH = K + M
N_JOBS = 4
STRIPES_PER_JOB = 1 if SMOKE else 4
BLOCK_BYTES = 1 << 10 if SMOKE else 1 << 14


def _build_contention_free(seed=0):
    """N_JOBS disjoint node groups, each holding its own stripes; one dead
    node per group so every job has work and no two jobs share a link."""
    n_data = N_JOBS * WIDTH
    nodes = [Node(i, 100.0, 100.0) for i in range(n_data)]
    coord = Coordinator(Cluster(nodes), RSCode(K, M), block_bytes=BLOCK_BYTES,
                        block_size_mb=16.0, rng=seed)
    for j in range(N_JOBS):
        coord.add_spare(Node(n_data + j, 100.0, 100.0))
    rng = np.random.default_rng(seed)
    groups = []
    for g in range(N_JOBS):
        base = g * WIDTH
        sids = []
        for _ in range(STRIPES_PER_JOB):
            blocks = rng.integers(0, 256, size=(K, BLOCK_BYTES), dtype=np.uint8)
            coded = coord.code.encode_stripe(blocks)
            sid = coord.layout.next_id()
            placement = list(range(base, base + WIDTH))
            coord.layout.add(Stripe(sid, K, M, placement))
            for b, node in enumerate(placement):
                coord.agents[node].store_block(block_name(sid, b), coded[b])
            sids.append(sid)
        groups.append(sids)
    for g in range(N_JOBS):
        coord.crash_node(g * WIDTH)
    return coord, groups


def _run_at_concurrency(cap):
    coord, groups = _build_contention_free()
    sch = RepairScheduler(coord, AdmissionPolicy(
        max_inflight_per_node=None, max_inflight_total=cap))
    coord.sched = sch
    for sids in groups:
        sch.submit(stripes=sids)
    t0 = time.perf_counter()
    report = sch.run_pending(verify=not SMOKE)
    wall_s = time.perf_counter() - t0
    assert len(report.done) == N_JOBS and not report.failed
    assert report.waves == -(-N_JOBS // cap)  # ceil division
    return report, wall_s


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_sched_throughput_scales_with_concurrency(cap):
    """Contention-free jobs: aggregate makespan shrinks ~cap-fold."""
    baseline, _ = _run_at_concurrency(1)
    report, wall_s = _run_at_concurrency(cap)
    speedup = baseline.makespan_s / report.makespan_s
    # disjoint footprints: concurrency must buy near-linear speedup
    assert speedup > 0.9 * cap
    record_point(
        "sched", f"sched.concurrency_{cap}",
        params={
            "jobs": N_JOBS, "stripes_per_job": STRIPES_PER_JOB,
            "k": K, "m": M, "concurrency": cap,
            "block_bytes": BLOCK_BYTES, "smoke": SMOKE,
        },
        metrics={
            "aggregate_makespan_s": report.makespan_s,
            "jobs_per_sim_sec": len(report.done) / report.makespan_s,
            "waves": report.waves,
            "speedup_x": speedup,
            "wall_s": wall_s,
        },
    )


def _build_shared_group(seed=0):
    """All jobs' stripes on ONE node group: every job shares every link."""
    nodes = [Node(i, 100.0, 100.0) for i in range(WIDTH)]
    coord = Coordinator(Cluster(nodes), RSCode(K, M), block_bytes=BLOCK_BYTES,
                        block_size_mb=16.0, rng=seed)
    coord.add_spare(Node(WIDTH, 100.0, 100.0))
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(N_JOBS):
        sids = []
        for _ in range(STRIPES_PER_JOB):
            blocks = rng.integers(0, 256, size=(K, BLOCK_BYTES), dtype=np.uint8)
            coded = coord.code.encode_stripe(blocks)
            sid = coord.layout.next_id()
            placement = list(range(WIDTH))
            coord.layout.add(Stripe(sid, K, M, placement))
            for b, node in enumerate(placement):
                coord.agents[node].store_block(block_name(sid, b), coded[b])
            sids.append(sid)
        groups.append(sids)
    coord.crash_node(0)
    return coord, groups


def test_sched_weighted_contention_point():
    """One contended point for the trajectory: a foreground job beats the
    background jobs it shares every link with."""
    coord, groups = _build_shared_group()
    sch = RepairScheduler(coord, AdmissionPolicy(max_inflight_per_node=None))
    coord.sched = sch
    jobs = [
        sch.submit(stripes=sids, priority="foreground" if i == 0 else "background")
        for i, sids in enumerate(groups)
    ]
    t0 = time.perf_counter()
    report = sch.run_pending(verify=not SMOKE)
    wall_s = time.perf_counter() - t0
    assert not report.failed
    slowest_bg = max(j.finish_s for j in jobs[1:])
    # 4.0 vs 0.25 weights on shared links: foreground must clearly win
    assert jobs[0].finish_s < slowest_bg
    record_point(
        "sched", "sched.weighted_mix",
        params={
            "jobs": N_JOBS, "stripes_per_job": STRIPES_PER_JOB,
            "k": K, "m": M, "smoke": SMOKE,
        },
        metrics={
            "aggregate_makespan_s": report.makespan_s,
            "foreground_finish_s": jobs[0].finish_s,
            "slowest_background_finish_s": slowest_bg,
            "wall_s": wall_s,
        },
    )
