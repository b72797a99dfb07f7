"""Property suite for the chunked degraded-read pipeline (ISSUE 7).

Pins the tentpole's two contracts:

* **bit-exactness** — for chunks in {1, 2, 4, 8} over random (k, m, f)
  in GF(2^8) and GF(2^16), the pipelined degraded read returns exactly
  the barrier path's bytes (column-sliced GF decode is a partition of
  the whole-block matmul), at both the engine level
  (:func:`~repro.workload.pipeline.decode_chunked`) and through the full
  serving data plane;
* **latency monotonicity** — degraded read latency is non-increasing in
  the chunk count (each extra slice can only start decode earlier),
  while the healthy subset is untouched by the knob.

Plus the fast-path foundation: :meth:`RepairScheduler.estimate_finish_s
<repro.sched.scheduler.RepairScheduler.estimate_finish_s>` must be
planning-only — identical on repeat, center-scheduler state restored,
and a subsequent real repair bit-identical to one never preceded by an
estimate — and a served storm dispatches the estimate's rounds instead of
planning them again, with the same result.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.gf.field import GF
from repro.repair.batch import BatchRepairEngine, PlanCache
from repro.sched.scheduler import RepairScheduler
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from repro.workload import (
    ServeRequest,
    ServeResult,
    ServingPlane,
    WorkloadSpec,
    chunk_slices,
    chunked_read_tasks,
    decode_chunked,
)
from repro.workload.pipeline import read_pipeline_saved_s
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout

CASE_SEEDS = seed_fanout(DEFAULT_MASTER_SEED, 5)
CHUNK_GRID = (1, 2, 4, 8)


def _random_case(seed):
    """Random (k, m, f, block_bytes) with f <= m (per-stripe recoverable)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    m = int(rng.integers(2, 5))
    f = int(rng.integers(1, m + 1))
    block_bytes = int(rng.integers(1, 5)) * 512
    return rng, k, m, f, block_bytes


def _build_system(rng, k, m, block_bytes, n_spare=0):
    n_data = k + m + 4
    coord = Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(n_data)]),
        RSCode(k, m),
        block_bytes=block_bytes,
        block_size_mb=8.0,
        rng=int(rng.integers(0, 2**31)),
    )
    for j in range(n_spare):
        coord.add_spare(Node(n_data + j, 100.0, 100.0))
    return coord


# ------------------------------------------------------------------ #
# chunk geometry
# ------------------------------------------------------------------ #
def test_chunk_slices_partition_word_aligned():
    """Slices tile [0, B) exactly, word-aligned, for any chunk request."""
    for block_len in (2, 8, 512, 1000, 4096):
        for chunks in (1, 2, 3, 4, 7, 8, 64, block_len + 5):
            slices = chunk_slices(block_len, chunks)
            assert 1 <= len(slices) <= chunks
            assert slices[0].lo == 0 and slices[-1].hi == block_len
            for a, b in zip(slices, slices[1:]):
                assert a.hi == b.lo  # contiguous, no gaps or overlaps
            for sl in slices:
                assert sl.width > 0
                assert sl.lo % 2 == 0  # even columns: GF(2^16) word safe
    with pytest.raises(ValueError):
        chunk_slices(16, 0)
    with pytest.raises(ValueError):
        chunk_slices(0, 1)


# ------------------------------------------------------------------ #
# bit-exactness: engine level
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("seed", CASE_SEEDS[:3])
def test_decode_chunked_matches_barrier_decode(seed, w):
    """decode_chunked == decode_batch for every chunk count, both fields."""
    rng, k, m, f, _ = _random_case(seed)
    field = GF(w)
    code = RSCode(k, m, field)
    words = int(rng.integers(32, 129))
    data = rng.integers(0, field.size, size=(k, words)).astype(field.dtype)
    coded = code.encode_stripe(data)
    failed = sorted(int(b) for b in rng.choice(k, size=min(f, k), replace=False))
    survivors = [b for b in range(k + m) if b not in failed][:k]
    stacked = np.stack([coded[b] for b in survivors])[None, ...]
    engine = BatchRepairEngine(code, cache=PlanCache())
    want = engine.decode_batch(tuple(survivors), tuple(failed), stacked)
    for chunks in (1, 2, 3, 4, 8, 64, words + 3):
        got = decode_chunked(engine, tuple(survivors), tuple(failed), stacked, chunks)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), f"chunks={chunks} drifted"


# ------------------------------------------------------------------ #
# bit-exactness: the full serving data plane
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_chunked_read_bit_exact_gf8(seed):
    """Pipelined degraded reads return the barrier path's exact bytes."""
    rng, k, m, f, block_bytes = _random_case(seed)
    coord = _build_system(rng, k, m, block_bytes)
    spec = WorkloadSpec(
        n_objects=3, object_bytes=2 * k * block_bytes, seed=int(seed) % (2**31)
    )
    ServingPlane(coord, spec).provision()
    sid0 = coord.files[spec.object_name(0)][0][0]
    stripe = next(s for s in coord.layout if s.stripe_id == sid0)
    for v in [stripe.placement[b] for b in rng.choice(k + m, size=f, replace=False)]:
        coord.crash_node(v)
    gw = sorted(coord.data_nodes())[0]
    planes = {c: ServingPlane(coord, spec, chunks=c) for c in CHUNK_GRID}
    for i in range(spec.n_objects):
        name = spec.object_name(i)
        want = planes[1].read_object(name, gateway=gw)  # the barrier path
        for c in CHUNK_GRID[1:]:
            got = planes[c].read_object(name, gateway=gw)
            assert got == want, f"chunks={c} drifted on {name} (seed {seed})"


@pytest.mark.parametrize("seed", CASE_SEEDS[:3])
def test_chunked_read_bit_exact_gf16(seed):
    """Same contract on a GF(2^16) wide-word stripe, written through
    ``Coordinator.write``: every chunk count reads the written bytes."""
    rng, k, m, f, _ = _random_case(seed)
    # a read takes only blocks of ``block_bytes`` words, which is word-aligned
    words = int(rng.integers(16, 65)) // 8 * 8
    n_data = k + m + 2
    coord = Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(n_data)]),
        RSCode(k, m, GF(16)),
        block_bytes=words,
        rng=0,
    )
    want = rng.integers(0, 256, size=2 * k * words, dtype=np.uint8).tobytes()
    (sid,) = coord.write("wide", want).stripe_ids
    placement = coord.layout[sid].placement
    for v in [placement[b] for b in rng.choice(k + m, size=f, replace=False)]:
        coord.crash_node(v)
    gw = sorted(coord.data_nodes())[0]
    for c in CHUNK_GRID:
        plane = ServingPlane(coord, WorkloadSpec(n_objects=1), chunks=c)
        assert plane.read_object("wide", gateway=gw) == want, f"chunks={c}"


# ------------------------------------------------------------------ #
# latency: monotone non-increasing in chunk count
# ------------------------------------------------------------------ #
K, M, BLOCK_BYTES = 4, 2, 4096
SPEC = WorkloadSpec(
    n_objects=8, object_bytes=2 * K * BLOCK_BYTES, duration_s=6.0,
    rate_ops_s=8.0, read_fraction=0.9, write_bytes=256, seed=20230717,
)


def _serve(chunks, *, decode_mbps=32.0, repair=(), fast_path=True):
    rng = np.random.default_rng(11)
    coord = _build_system(rng, K, M, BLOCK_BYTES, n_spare=4)
    plane = ServingPlane(
        coord, SPEC, chunks=chunks, decode_mbps=decode_mbps, fast_path=fast_path
    )
    plane.provision()
    stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
    for v in stripe0.placement[:2]:
        coord.crash_node(v)
    return plane.run(repair=repair)


def test_degraded_latency_monotone_in_chunks():
    """More chunks never slow a degraded read; healthy ops never move."""
    runs = {c: _serve(c) for c in CHUNK_GRID}
    base = runs[1]
    assert base.degraded_reads > 0
    assert base.pipeline_saved_s == 0.0  # one chunk == the barrier model
    prev = base
    for c in CHUNK_GRID[1:]:
        cur = runs[c]
        # identical bytes, identical op population
        assert [o.digest for o in cur.outcomes] == [o.digest for o in base.outcomes]
        assert cur.degraded_reads == base.degraded_reads
        # pipelining strictly helps once decode is split
        assert cur.pipeline_saved_s > 0.0
        for key in ("p50", "p99", "mean", "max"):
            assert cur.latency_degraded[key] <= prev.latency_degraded[key] + 1e-9
        # the knob only touches degraded stripes: healthy subset unmoved
        # (re-solve events land at different instants across chunk counts,
        # so allow last-ulp float drift in the fluid finish times)
        assert cur.latency_healthy.keys() == base.latency_healthy.keys()
        for key, val in base.latency_healthy.items():
            assert cur.latency_healthy[key] == pytest.approx(val, abs=1e-9)
        for a, b in zip(cur.outcomes, base.outcomes):
            if not a.degraded:
                assert a.latency_s == pytest.approx(b.latency_s, abs=1e-9)
        prev = cur


def test_per_op_degraded_finish_never_regresses():
    """Per-op, not just per-percentile: every degraded op's finish is <=."""
    base = _serve(1)
    for c in CHUNK_GRID[1:]:
        cur = _serve(c)
        for a, b in zip(cur.outcomes, base.outcomes):
            assert a.finish_s <= b.finish_s + 1e-9


# ------------------------------------------------------------------ #
# task topology
# ------------------------------------------------------------------ #
def test_chunked_tasks_reduce_to_legacy_at_one_chunk():
    """chunks=1 emits exactly the PR 6 barrier ids and dependencies."""
    plan = chunked_read_tasks(
        prefix="fg:7:", sid=3, fetches=[(0, 5), (2, 6)], n_missing=1,
        slices=chunk_slices(4096, 1), block_size_mb=32.0, decode_mbps=1024.0,
        weight=4.0, gateway=1,
    )
    ids = [t.task_id for t in plan.tasks]
    assert ids == ["fg:7:s3:b0", "fg:7:s3:b2", "fg:7:dec3"]
    flows = plan.tasks[:2]
    assert all(t.deps == ("fg:7:arr",) for t in flows)
    assert plan.tasks[2].deps == ("fg:7:s3:b0", "fg:7:s3:b2")
    assert plan.cost_s == (32.0 / 1024.0,)


def test_chunked_tasks_chain_fetch_and_decode():
    """Chunk c's sub-flow depends on c-1's; decode chains on one lane."""
    plan = chunked_read_tasks(
        prefix="fg:7:", sid=3, fetches=[(0, 5)], n_missing=2,
        slices=chunk_slices(4096, 4), block_size_mb=32.0, decode_mbps=64.0,
        weight=4.0, gateway=1,
    )
    assert len(plan.dec_ids) == 4
    flows = [t for t in plan.tasks if t.task_id.startswith("fg:7:s3:b0")]
    assert flows[0].deps == ("fg:7:arr",)
    for prev, cur in zip(flows, flows[1:]):
        assert cur.deps == (prev.task_id,)  # streaming chain per block
    assert abs(sum(f.size_mb for f in flows) - 32.0) < 1e-12
    decs = [t for t in plan.tasks if t.task_id.startswith("fg:7:dec3")]
    assert decs[0].deps == (flows[0].task_id,)
    for i, (prev, cur) in enumerate(zip(decs, decs[1:]), start=1):
        assert cur.deps == (flows[i].task_id, prev.task_id)
    assert abs(sum(plan.cost_s) - 2 * 32.0 / 64.0) < 1e-12


@pytest.mark.parametrize(
    "ready, cost, saved",
    [
        # chained 1->2, 2->3, 3->4 against all ready at 3, then 3 decodes
        ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 2.0),
        # ready out of index order: decoded in ready order, done at 4
        ([3.0, 0.0, 1.0, 2.0], [1.0] * 4, 3.0),
        # equal ready times: the lane serializes either way, nothing saved
        ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 0.0),
        ([], [], 0.0),
    ],
    ids=["staggered", "unordered", "equal-ready", "empty"],
)
def test_read_pipeline_saved_s_single_lane(ready, cost, saved):
    """One decode lane: the chained decode against the barrier model."""
    assert read_pipeline_saved_s(ready, cost) == saved


# ------------------------------------------------------------------ #
# the fast-path estimate is planning-only
# ------------------------------------------------------------------ #
def _failed_system(seed=5):
    rng = np.random.default_rng(seed)
    coord = _build_system(rng, K, M, BLOCK_BYTES, n_spare=4)
    spec = WorkloadSpec(n_objects=4, object_bytes=2 * K * BLOCK_BYTES, seed=9)
    ServingPlane(coord, spec).provision()
    stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
    for v in stripe0.placement[:2]:
        coord.crash_node(v)
    return coord


def test_estimate_finish_s_is_deterministic_and_stateless():
    """Repeat estimates agree, and the center scheduler is untouched."""
    coord = _failed_system()
    req = (RepairRequest(scheme="hmbr", priority="background"),)
    cs = coord.center_scheduler
    state0 = (dict(cs.counts), dict(cs.last_selected), cs._clock)
    a = coord.sched.estimate_finish_s(req)
    assert (dict(cs.counts), dict(cs.last_selected), cs._clock) == state0
    b = coord.sched.estimate_finish_s(req)
    assert a.finish_s == b.finish_s and a.replacement_of == b.replacement_of
    assert a.finish_s  # the storm repairs something
    assert all(t > 0.0 for t in a.finish_s.values())
    dead = set(coord.cluster.dead_ids())
    assert set(a.replacement_of) <= dead
    assert set(a.replacement_of.values()) <= set(coord.spares)


def test_estimate_does_not_perturb_the_real_repair():
    """A repair preceded by an estimate is bit-identical to one without."""
    ca, cb = _failed_system(), _failed_system()
    req = RepairRequest(scheme="hmbr")
    ca.sched.estimate_finish_s((req,))  # only system A estimates first
    ra, rb = ca.repair(req), cb.repair(req)
    assert ra.stripes_repaired == rb.stripes_repaired
    assert ra.blocks_recovered == rb.blocks_recovered
    assert ra.makespan_s == rb.makespan_s
    pa = {s.stripe_id: list(s.placement) for s in ca.layout}
    pb = {s.stripe_id: list(s.placement) for s in cb.layout}
    assert pa == pb  # same spare assignment AND same center picks


def test_estimate_skips_unplannable_requests():
    """No free spares -> no estimate, no exception, nothing queued."""
    rng = np.random.default_rng(3)
    coord = _build_system(rng, K, M, BLOCK_BYTES, n_spare=0)
    spec = WorkloadSpec(n_objects=2, object_bytes=K * BLOCK_BYTES, seed=1)
    ServingPlane(coord, spec).provision()
    stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
    coord.crash_node(stripe0.placement[0])
    eta = coord.sched.estimate_finish_s((RepairRequest(),))
    assert eta.finish_s == {} and eta.replacement_of == {}
    assert coord.sched.queue_depth == 0


def _served_storm():
    """A storm of two background jobs over disjoint stripes, served with
    the fast path on (its default)."""
    rng = np.random.default_rng(11)
    coord = _build_system(rng, K, M, BLOCK_BYTES, n_spare=4)
    ServingPlane(coord, SPEC).provision()
    stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
    for v in stripe0.placement[:2]:
        coord.crash_node(v)
    sids = sorted(coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    half = len(sids) // 2
    storm = tuple(
        RepairRequest(stripes=part, priority="background")
        for part in (sids[:half], sids[half:])
    )
    return coord.serve(ServeRequest(spec=SPEC, repair=storm, chunks=4))


def test_a_served_storm_is_planned_once_per_job(monkeypatch):
    """The real wave dispatches the rounds the estimate planned; the result
    is field for field the one of a run that plans every round twice."""
    calls = []
    plan_round = Coordinator.plan_round
    monkeypatch.setattr(
        Coordinator, "plan_round",
        lambda self, *a, **kw: calls.append(a[0]) or plan_round(self, *a, **kw),
    )
    handed = _served_storm()
    assert len(calls) == 2
    assert handed.fast_path_reads > 0 and handed.writes > 0
    # refusing every handed round is what the serving plane did before
    monkeypatch.setattr(RepairScheduler, "_take_round", lambda self, *a: None)
    replanned = _served_storm()
    assert len(calls) == 2 + 4
    for f in dataclasses.fields(ServeResult):
        assert getattr(handed, f.name) == getattr(replanned, f.name), f.name


# ------------------------------------------------------------------ #
# facade threading
# ------------------------------------------------------------------ #
def test_serve_request_validates_and_threads_chunks():
    with pytest.raises(ValueError):
        ServeRequest(spec=SPEC, chunks=0)
    with pytest.raises(ValueError):
        ServeRequest(spec=SPEC, chunks=2.5)
    rng = np.random.default_rng(2)
    coord = _build_system(rng, K, M, BLOCK_BYTES, n_spare=4)
    res = coord.serve(ServeRequest(spec=SPEC, chunks=4, fast_path=False))
    assert res.chunks == 4
    assert res.fast_path_reads == 0
