"""The parallel data plane: pool sharding, pipelining, engine differentials.

Twin-system differentials pin the headline contract — a coordinator whose
data plane runs through :class:`repro.parallel.ParallelRepairEngine` stores
byte-identical blocks on identical placements with the identical simulated
makespan as its serial twin, healthy *and* after a `repro.faults` storm —
plus unit coverage for the shard geometry, the inline fallback, and the
chunk-pipelining model the parallel reports carry.
"""

import numpy as np
import pytest

from repro.ec.rs import get_code
from repro.gf.batch import gf_plane_matmul
from repro.obs import Observability
from repro.parallel import (
    ParallelRepairEngine,
    WorkerPool,
    pipeline_schedule,
    resolve_workers,
    shard_bounds,
)
from repro.repair.batch import BatchRepairEngine, StripeBatchItem
from repro.system.request import RepairRequest

from tests.test_system_batch import build_system, snapshot

WORKERS = 2  # small on purpose: forks in tests should be cheap


# ------------------------------------------------------------------ #
# shard geometry
# ------------------------------------------------------------------ #
def test_shard_bounds_cover_range_and_ascend():
    bounds = shard_bounds(1000, 4)
    assert bounds[0] == 0 and bounds[-1] == 1000
    assert bounds == sorted(set(bounds))
    assert len(bounds) <= 5


def test_shard_bounds_snap_to_item_len():
    bounds = shard_bounds(7 * 96, 4, item_len=96)
    for cut in bounds[1:-1]:
        assert cut % 96 == 0
    assert bounds[-1] == 7 * 96


def test_shard_bounds_even_snap_without_item_len():
    for cut in shard_bounds(1002, 5)[1:-1]:
        assert cut % 2 == 0


def test_shard_bounds_more_shards_than_columns():
    assert shard_bounds(2, 8) == [0, 2]
    with pytest.raises(ValueError):
        shard_bounds(10, 0)


def test_resolve_workers():
    assert resolve_workers(None) >= 1
    assert resolve_workers(3) == 3
    with pytest.raises(ValueError):
        resolve_workers(0)


# ------------------------------------------------------------------ #
# the pool
# ------------------------------------------------------------------ #
def _random_problem(w=16, f=3, k=6, n=256, seed=0):
    field = get_code(k, f, w).field
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, field.size, size=(f, k)).astype(field.dtype)
    plane = rng.integers(0, field.size, size=(k, n)).astype(field.dtype)
    return field, mat, plane


def test_pool_serial_fallback_is_inline():
    field, mat, plane = _random_problem()
    pool = WorkerPool(workers=1)
    out, shards = pool.decode_plane(mat, plane, field)
    assert np.array_equal(out, gf_plane_matmul(mat, plane, field))
    assert pool.stats.inline_calls == 1 and pool.stats.dispatches == 0
    assert len(shards) == 1 and shards[0].cols == plane.shape[1]
    assert pool._pool is None  # no process ever started


def test_pool_small_planes_stay_inline():
    field, mat, plane = _random_problem(n=64)
    with WorkerPool(workers=WORKERS, min_parallel_cols=1 << 12) as pool:
        out, _ = pool.decode_plane(mat, plane, field)
        assert np.array_equal(out, gf_plane_matmul(mat, plane, field))
        assert pool.stats.dispatches == 0 and pool.stats.inline_calls == 1


@pytest.mark.parametrize("w", [8, 16])
def test_pooled_decode_bit_exact(w):
    field, mat, plane = _random_problem(w=w, n=512)
    with WorkerPool(workers=WORKERS, min_parallel_cols=16) as pool:
        out, shards = pool.decode_plane(mat, plane, field)
        assert np.array_equal(out, gf_plane_matmul(mat, plane, field))
        st = pool.stats
        assert st.dispatches == 1 and st.shards == len(shards)
        assert 1 <= len(shards) <= WORKERS
        assert [s.lo for s in shards][0] == 0 and shards[-1].hi == 512
        assert 0.0 <= st.utilization(WORKERS)


def test_pooled_decode_respects_item_len():
    field, mat, plane = _random_problem(n=6 * 96)
    with WorkerPool(workers=WORKERS, min_parallel_cols=16) as pool:
        out, shards = pool.decode_plane(mat, plane, field, item_len=96)
        assert np.array_equal(out, gf_plane_matmul(mat, plane, field))
        for s in shards[:-1]:
            assert s.hi % 96 == 0


def test_pool_rejects_incompatible_shapes():
    field, mat, plane = _random_problem()
    with pytest.raises(ValueError):
        WorkerPool(workers=1).decode_plane(mat, plane[:-1], field)


def test_pool_stats_utilization_zero_cases():
    from repro.parallel.pool import PoolStats

    assert PoolStats().utilization(4) == 0.0


# ------------------------------------------------------------------ #
# the pipelining model
# ------------------------------------------------------------------ #
def test_pipeline_schedule_beats_barrier_on_staggered_arrivals():
    rep = pipeline_schedule([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], [1.0] * 4, workers=2)
    assert rep.makespan_s < rep.barrier_makespan_s
    assert rep.saved_s == pytest.approx(rep.barrier_makespan_s - rep.makespan_s)
    assert set(rep.landed_s) == {0, 1, 2, 3}
    for slot in rep.slots:
        assert slot.start_s >= slot.ready_s
        assert slot.done_s == pytest.approx(slot.start_s + slot.cost_s)
        assert 0 <= slot.lane < 2
    assert len(rep) == 4


def test_pipeline_schedule_single_lane_serializes():
    rep = pipeline_schedule([0, 1, 2], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], workers=1)
    assert rep.makespan_s == pytest.approx(6.0)
    assert rep.barrier_makespan_s == pytest.approx(6.0)  # same arrivals: no win


def test_pipeline_schedule_validation():
    with pytest.raises(ValueError):
        pipeline_schedule([0], [0.0, 1.0], [1.0], workers=2)
    with pytest.raises(ValueError):
        pipeline_schedule([0], [0.0], [1.0], workers=0)
    with pytest.raises(ValueError):
        pipeline_schedule([0], [-1.0], [1.0], workers=1)
    empty = pipeline_schedule([], [], [], workers=3)
    assert len(empty) == 0 and empty.makespan_s == 0.0


# ------------------------------------------------------------------ #
# the engine
# ------------------------------------------------------------------ #
def _batch_items(code, n_stripes=6, block=256, seed=7):
    rng = np.random.default_rng(seed)
    failed = [1, 4, 6][: code.m - 1]
    survivors = [i for i in range(code.n) if i not in failed][: code.k]
    stripes, items = [], []
    for sid in range(n_stripes):
        data = rng.integers(0, code.field.size, size=(code.k, block)).astype(
            code.field.dtype
        )
        coded = code.encode_stripe(data)
        stripes.append(coded)
        items.append(
            StripeBatchItem(
                stripe_id=sid,
                survivors=tuple(survivors),
                failed=tuple(failed),
                sources=[coded[i] for i in survivors],
            )
        )
    return stripes, failed, items


def test_engine_bit_exact_with_serial_engine():
    code = get_code(8, 4, 16)
    stripes, failed, items = _batch_items(code)
    serial = BatchRepairEngine(code).repair_items(items)
    with ParallelRepairEngine(code, workers=WORKERS, min_parallel_cols=16) as eng:
        pooled = eng.repair_items(items)
        stats = eng.stats()
    for sid in range(len(stripes)):
        for fb in failed:
            assert np.array_equal(pooled.outputs[sid][fb], serial.outputs[sid][fb])
            assert np.array_equal(pooled.outputs[sid][fb], stripes[sid][fb])
    assert stats["workers"] == WORKERS
    assert stats["pool_dispatches"] >= 1
    assert stats["pool_shards"] >= stats["pool_dispatches"]
    assert stats["pool_busy_seconds"] >= 0.0


def test_engine_workers_one_never_forks():
    code = get_code(8, 4, 8)
    _, _, items = _batch_items(code)
    with ParallelRepairEngine(code, workers=1) as eng:
        eng.repair_items(items)
        assert eng.pool._pool is None
        assert eng.stats()["pool_dispatches"] == 0


def test_engine_pool_xor_workers():
    code = get_code(4, 2, 8)
    with WorkerPool(workers=2) as pool:
        with pytest.raises(ValueError):
            ParallelRepairEngine(code, workers=2, pool=pool)
        eng = ParallelRepairEngine(code, pool=pool)
        assert not eng._owns_pool
        eng.close()  # must NOT reap the shared pool
        _, mat, plane = _random_problem(w=8, n=32)
        out, _ = pool.decode_plane(mat, plane, code.field)
        assert out.shape == (3, 32)


def test_engine_emits_parallel_spans_and_metrics():
    code = get_code(8, 4, 16)
    _, _, items = _batch_items(code)
    obs = Observability()
    with ParallelRepairEngine(
        code, obs=obs, workers=WORKERS, min_parallel_cols=16
    ) as eng:
        eng.repair_items(items)
    names = [s.name for s in obs.tracer.spans]
    assert "parallel:decode" in names
    m = obs.metrics
    assert m.counter("parallel.calls").value >= 1
    assert m.counter("parallel.dispatches").value >= 1
    assert m.counter("parallel.shards").value >= m.counter("parallel.dispatches").value


# ------------------------------------------------------------------ #
# twin-system differentials (the tentpole contract)
# ------------------------------------------------------------------ #
def test_parallel_repair_bit_exact_with_serial_twin():
    a, b = build_system(), build_system()
    for coord in (a, b):
        coord.crash_node(3)
        coord.crash_node(7)
    ra = a.repair(RepairRequest())
    rb = b.repair(RepairRequest(workers=WORKERS))
    data_a, place_a = snapshot(a)
    data_b, place_b = snapshot(b)
    assert data_a == data_b
    assert place_a == place_b
    # the timing plane is decoupled from the pipelining model's lane count
    assert rb.makespan_s == pytest.approx(ra.makespan_s, abs=1e-12)
    assert rb.per_stripe_transfer_s == ra.per_stripe_transfer_s
    assert rb.blocks_recovered == ra.blocks_recovered
    assert rb.workers == WORKERS
    assert rb.pipeline is not None and len(rb.pipeline) == len(rb.stripes_repaired)
    assert rb.pipeline.saved_s >= 0.0
    assert rb.plan_summary["pipeline_saved_s"] == rb.pipeline.saved_s
    # pipelined landings can only improve on the wave barrier
    assert rb.pipeline.makespan_s <= rb.pipeline.barrier_makespan_s + 1e-12
    assert all(b.scrub().values())


def test_parallel_repair_bit_exact_after_fault_storm():
    from repro.faults.schedule import FaultSchedule

    schedule = FaultSchedule.random(
        seed=20230717, targets=list(range(8)), n_events=4, max_kills=1
    )
    a, b = build_system(seed=3), build_system(seed=3)
    for coord in (a, b):
        coord.crash_node(1)
        coord.repair(RepairRequest(faults=schedule))
    for coord in (a, b):
        victim = next(i for i in (4, 6, 8) if coord.cluster[i].alive)
        coord.crash_node(victim)
    a.repair(RepairRequest())
    b.repair(RepairRequest(workers=WORKERS))
    data_a, place_a = snapshot(a)
    data_b, place_b = snapshot(b)
    assert data_a == data_b
    assert place_a == place_b
    assert all(b.scrub().values())


def test_scheduler_route_with_workers_bit_exact():
    a, b = build_system(), build_system()
    for coord in (a, b):
        coord.crash_node(3)
    affected = sorted(a.layout.stripes_with_failures(a.cluster.dead_ids()))
    ra = a.repair([RepairRequest(stripes=tuple(affected))])
    rb = b.repair([RepairRequest(stripes=tuple(affected), workers=WORKERS)])
    assert snapshot(a) == snapshot(b)
    assert rb.makespan_s == pytest.approx(ra.makespan_s, abs=1e-12)
    assert rb.ok and len(rb.jobs) == 1 and rb.jobs[0].state == "done"


def test_repair_rounds_never_touch_the_pool(monkeypatch):
    """``workers`` is the pipelining model's lane count: a per-stripe plane
    never repays pool dispatch (docs/PARALLEL.md), so combines stay inline."""

    def refuse(*args, **kwargs):
        raise AssertionError("a repair round dispatched to the worker pool")

    monkeypatch.setattr(WorkerPool, "decode_plane", refuse)
    coord = build_system()
    coord.crash_node(3)
    res = coord.repair(RepairRequest(workers=WORKERS))
    assert res.pipeline is not None and all(coord.scrub().values())
