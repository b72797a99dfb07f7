"""Unit and differential tests for `repro.repair.batch`.

Three layers of guarantees:

* `PlanCache` bookkeeping — hit/miss accounting, LRU eviction at capacity,
  and surviving-helper invalidation (driven by real `repro.faults` kill
  schedules, mirroring a helper dying mid-storm);
* decode plans — `build_decode_plan` matches the one derivation
  (`RSCode.derive_repair_matrix`) bit-for-bit and goes through the code's
  own LRU, so a pattern a planner already inverted is not inverted again;
* the engine — batched decode vs per-stripe `RSCode.decode` over
  seeded-random (k, m, f, erasure pattern, block size) samples in GF(2^8)
  and GF(2^16), including degenerate single-stripe batches and batches
  mixing patterns and block lengths.
"""

import numpy as np
import pytest

from repro.ec.rs import RSCode, get_code
from repro.faults.schedule import FaultSchedule
from repro.gf.field import GF
from repro.repair.batch import (
    BatchRepairEngine,
    PlanCache,
    StripeBatchItem,
    build_decode_plan,
    group_by_pattern,
    pattern_key,
)

SEEDS = [int(s) for s in np.random.SeedSequence(51202).generate_state(6)]


def random_pattern(rng, code):
    """A random (survivors, failed) pair valid for ``code``."""
    f = int(rng.integers(1, code.m + 1))
    failed = sorted(int(x) for x in rng.choice(code.n, size=f, replace=False))
    avail = [i for i in range(code.n) if i not in failed]
    survivors = tuple(sorted(int(x) for x in rng.choice(avail, size=code.k, replace=False)))
    return survivors, tuple(failed)


# --------------------------------------------------------------------- #
# pattern keys
# --------------------------------------------------------------------- #
class TestPatternKey:
    def test_key_fields_and_survivor_sorting(self):
        code = get_code(4, 3, 8)
        key = pattern_key(code, (6, 0, 1, 2), (3, 5))
        assert key.survivors == (0, 1, 2, 6)
        assert key.failed == (3, 5)
        assert (key.w, key.k, key.m) == (8, 4, 3)

    def test_same_pattern_different_order_hashes_equal(self):
        code = get_code(4, 3, 8)
        assert pattern_key(code, (2, 1, 0, 6), (3,)) == pattern_key(code, (0, 1, 2, 6), (3,))

    def test_failed_order_is_significant(self):
        """Output row order differs, so (3, 5) and (5, 3) are distinct plans."""
        code = get_code(4, 3, 8)
        assert pattern_key(code, (0, 1, 2, 6), (3, 5)) != pattern_key(code, (0, 1, 2, 6), (5, 3))

    @pytest.mark.parametrize(
        "survivors,failed",
        [
            ((0, 1, 2), (3,)),  # too few survivors
            ((0, 1, 2, 3, 4), (5,)),  # too many
            ((0, 1, 2, 3), ()),  # empty failed
            ((0, 1, 2, 3), (3,)),  # overlap
            ((0, 1, 2, 3), (4, 4)),  # duplicate failed
            ((0, 1, 2, 3), (99,)),  # out of range
        ],
    )
    def test_rejects_invalid_patterns(self, survivors, failed):
        code = get_code(4, 3, 8)
        with pytest.raises(ValueError):
            pattern_key(code, survivors, failed)


def test_decode_plan_matches_repair_matrix():
    rng = np.random.default_rng(2)
    for k, m, w in [(4, 3, 8), (8, 4, 8), (6, 3, 16)]:
        code = get_code(k, m, w)
        for _ in range(4):
            survivors, failed = random_pattern(rng, code)
            plan = build_decode_plan(code, survivors, failed)
            assert np.array_equal(
                plan.matrix, code.derive_repair_matrix(sorted(survivors), failed)
            )
            assert not plan.matrix.flags.writeable
            assert plan.f == len(failed)


def test_one_inversion_per_pattern_across_planner_and_plan_cache(monkeypatch):
    """A pattern planned by a repair round and then decoded through the
    `PlanCache` (a degraded read during the storm) is inverted once."""
    import repro.ec.rs as rs
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster
    from repro.system.coordinator import Coordinator

    calls = []
    real_inv = rs.gf_inv
    monkeypatch.setattr(rs, "gf_inv", lambda *a, **kw: calls.append(1) or real_inv(*a, **kw))
    code = RSCode(4, 3)  # a fresh code: nothing memoized yet
    coord = Coordinator(Cluster([Node(i, 1.0, 1.0) for i in range(7)]), code, block_bytes=64)
    coord.add_spare(Node(100, 1.0, 1.0))
    coord.write("f", bytes(range(256)))
    coord.crash_node(coord.layout[0].placement[1])
    rnd = coord.plan_round("cr", coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    (_, ctx, _), = rnd.work
    assert not calls  # planning alone derives no coefficients
    rnd.plans[0][1].ops  # the byte view does, once
    assert len(calls) == 1
    survivors = ctx.chosen_survivors()
    stacked = np.stack(
        [coord.agents[ctx.stripe.placement[b]].read_block(f"s0000/b{b:02d}") for b in survivors]
    )[None]
    out = BatchRepairEngine(code, cache=coord.plan_cache).decode_batch(
        survivors, ctx.failed_blocks, stacked
    )
    assert coord.plan_cache.misses == 1 and len(calls) == 1
    assert np.array_equal(out[0, 0], code.encode_stripe(
        np.frombuffer(bytes(range(256)), dtype=np.uint8).reshape(4, 64))[1])


# --------------------------------------------------------------------- #
# PlanCache
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_hit_miss_accounting(self):
        code = get_code(4, 3, 8)
        cache = PlanCache()
        p1 = cache.plan_for(code, (0, 1, 2, 3), (4,))
        assert (cache.hits, cache.misses) == (0, 1)
        p2 = cache.plan_for(code, (3, 2, 1, 0), (4,))  # same pattern, reordered
        assert p2 is p1
        assert (cache.hits, cache.misses) == (1, 1)
        cache.plan_for(code, (0, 1, 2, 3), (5,))
        assert (cache.hits, cache.misses) == (1, 2)
        stats = cache.stats()
        assert stats["size"] == 2 and stats["hit_rate"] == pytest.approx(1 / 3)

    def test_lru_eviction_at_capacity(self):
        code = get_code(4, 3, 8)
        cache = PlanCache(capacity=2)
        k_a = pattern_key(code, (0, 1, 2, 3), (4,))
        k_b = pattern_key(code, (0, 1, 2, 3), (5,))
        k_c = pattern_key(code, (0, 1, 2, 3), (6,))
        cache.plan_for(code, k_a.survivors, k_a.failed)
        cache.plan_for(code, k_b.survivors, k_b.failed)
        cache.plan_for(code, k_a.survivors, k_a.failed)  # touch A: B is now LRU
        cache.plan_for(code, k_c.survivors, k_c.failed)  # evicts B
        assert k_a in cache and k_c in cache and k_b not in cache
        assert cache.evictions == 1
        # re-requesting the evicted pattern is a miss that rebuilds it
        misses = cache.misses
        cache.plan_for(code, k_b.survivors, k_b.failed)
        assert cache.misses == misses + 1

    def test_peek_does_not_touch_lru_or_counters(self):
        code = get_code(4, 3, 8)
        cache = PlanCache(capacity=2)
        k_a = pattern_key(code, (0, 1, 2, 3), (4,))
        cache.plan_for(code, k_a.survivors, k_a.failed)
        cache.plan_for(code, (0, 1, 2, 3), (5,))
        hits = cache.hits
        assert cache.peek(k_a) is not None
        assert cache.hits == hits  # peek is not a hit
        cache.plan_for(code, (0, 1, 2, 3), (6,))  # evicts A (peek didn't refresh it)
        assert k_a not in cache

    def test_clear_counts_as_invalidation(self):
        code = get_code(4, 3, 8)
        cache = PlanCache()
        cache.plan_for(code, (0, 1, 2, 3), (4,))
        cache.plan_for(code, (0, 1, 2, 3), (5,))
        cache.clear()
        assert len(cache) == 0 and cache.invalidations == 2
        assert cache.hits == 0 and cache.misses == 2  # lifetime totals survive

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_invalidate_survivor_mid_storm(self):
        """A storm kill makes a helper block unusable: every cached plan
        decoding through it must go, fresh patterns must survive."""
        code = get_code(4, 3, 8)
        cache = PlanCache()
        # plans from before the storm: two route through block 2, one doesn't
        cache.plan_for(code, (0, 1, 2, 3), (4,))
        cache.plan_for(code, (1, 2, 3, 5), (0,))
        cache.plan_for(code, (0, 1, 3, 4), (2,))  # block 2 is *failed* here, not a helper
        # reuse the chaos harness's schedule machinery to pick the casualty
        schedule = FaultSchedule.random(
            seed=7, targets=[2], n_events=1, max_kills=1, kinds=("kill",)
        )
        assert [e.target for e in schedule.kills()] == [2]
        evicted = cache.invalidate_survivor(schedule.kills()[0].target)
        assert evicted == 2
        assert cache.invalidations == 2
        assert len(cache) == 1
        assert pattern_key(code, (0, 1, 3, 4), (2,)) in cache
        # post-storm: the same logical repair re-plans over new survivors
        misses = cache.misses
        plan = cache.plan_for(code, (0, 1, 3, 5), (4,))
        assert cache.misses == misses + 1
        assert np.array_equal(plan.matrix, code.repair_matrix((0, 1, 3, 5), (4,)))

    def test_invalidate_where_predicate(self):
        code = get_code(4, 3, 8)
        cache = PlanCache()
        cache.plan_for(code, (0, 1, 2, 3), (4,))
        cache.plan_for(code, (0, 1, 2, 3), (5, 6))
        assert cache.invalidate_where(lambda k: len(k.failed) == 2) == 1
        assert len(cache) == 1


# --------------------------------------------------------------------- #
# grouping
# --------------------------------------------------------------------- #
def _item(code, sid, survivors, failed, length=64, seed=0):
    rng = np.random.default_rng(seed + sid)
    sources = [
        rng.integers(0, code.field.size, size=length).astype(code.field.dtype)
        for _ in survivors
    ]
    return StripeBatchItem(stripe_id=sid, survivors=survivors, failed=failed, sources=sources)


def test_group_by_pattern_first_occurrence_order():
    code = get_code(4, 3, 8)
    a = (tuple(range(4)), (4,))
    b = (tuple(range(1, 5)), (0,))
    items = [
        _item(code, 0, *a),
        _item(code, 1, *b),
        _item(code, 2, *a),
        _item(code, 3, *a),
    ]
    groups = group_by_pattern(code, items)
    assert [g.stripe_ids for g in groups] == [[0, 2, 3], [1]]
    assert len(groups[0]) == 3


def test_stripe_batch_item_validation():
    code = get_code(4, 3, 8)
    with pytest.raises(ValueError):
        _item(code, 0, (3, 1, 0, 2), (4,))  # unsorted survivors
    with pytest.raises(ValueError):
        StripeBatchItem(stripe_id=0, survivors=(0, 1, 2, 3), failed=(4,), sources=[np.zeros(4, np.uint8)])


# --------------------------------------------------------------------- #
# the engine: batched vs per-stripe, property-style
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_bit_exact_with_per_stripe_decode(w, seed):
    """The core differential property: randomized (k, m, f, pattern, block
    size) batches decode bit-exactly like per-stripe ``RSCode.decode``."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 10))
    m = int(rng.integers(1, 5))
    code = get_code(k, m, w)
    engine = BatchRepairEngine(code)
    n_patterns = int(rng.integers(1, 4))
    patterns = [random_pattern(rng, code) for _ in range(n_patterns)]
    items, reference = [], {}
    sid = 0
    for survivors, failed in patterns:
        for _ in range(int(rng.integers(1, 5))):
            length = int(rng.integers(1, 2048))
            data = rng.integers(0, code.field.size, size=(k, length)).astype(code.field.dtype)
            blocks = code.encode_stripe(data)
            items.append(
                StripeBatchItem(
                    stripe_id=sid,
                    survivors=survivors,
                    failed=failed,
                    sources=[blocks[i] for i in survivors],
                )
            )
            reference[sid] = {
                fb: code.decode({i: blocks[i] for i in survivors}, [fb])[fb]
                for fb in failed
            }
            sid += 1
    res = engine.repair_items(items)
    assert res.stripes == len(items)
    for s, per_block in reference.items():
        for fb, expected in per_block.items():
            assert np.array_equal(res.outputs[s][fb], expected), (w, seed, s, fb)


def test_engine_single_stripe_single_block_degenerate():
    """The smallest possible batch: one stripe, one lost block."""
    code = get_code(4, 2, 8)
    engine = BatchRepairEngine(code)
    rng = np.random.default_rng(77)
    data = rng.integers(0, 256, size=(4, 8)).astype(np.uint8)
    blocks = code.encode_stripe(data)
    item = StripeBatchItem(
        stripe_id=9, survivors=(0, 1, 2, 3), failed=(5,), sources=[blocks[i] for i in range(4)]
    )
    res = engine.repair_items([item])
    assert res.groups == 1 and res.stripes == 1
    assert np.array_equal(res.outputs[9][5], blocks[5])


def test_engine_groups_split_by_block_length():
    """Same pattern but different block lengths cannot share one stack —
    they still decode correctly (and count as one pattern group)."""
    code = get_code(3, 2, 8)
    engine = BatchRepairEngine(code)
    rng = np.random.default_rng(4)
    items, reference = [], {}
    for sid, length in enumerate([64, 64, 256]):
        data = rng.integers(0, 256, size=(3, length)).astype(np.uint8)
        blocks = code.encode_stripe(data)
        items.append(
            StripeBatchItem(
                stripe_id=sid, survivors=(0, 1, 2), failed=(3, 4),
                sources=[blocks[i] for i in range(3)],
            )
        )
        reference[sid] = blocks
    res = engine.repair_items(items)
    assert res.groups == 1  # one erasure pattern...
    assert res.plan_misses == 1 and res.plan_hits == 1  # ...two stacked kernels
    for sid, blocks in reference.items():
        assert np.array_equal(res.outputs[sid][3], blocks[3])
        assert np.array_equal(res.outputs[sid][4], blocks[4])


def test_engine_decode_batch_stacked_api():
    code = get_code(4, 2, 8)
    engine = BatchRepairEngine(code)
    rng = np.random.default_rng(11)
    survivors, failed = (0, 1, 2, 4), (3, 5)
    stack, expect = [], []
    for _ in range(6):
        data = rng.integers(0, 256, size=(4, 512)).astype(np.uint8)
        blocks = code.encode_stripe(data)
        stack.append([blocks[i] for i in survivors])
        expect.append([blocks[i] for i in failed])
    out = engine.decode_batch(survivors, failed, np.asarray(stack))
    assert out.shape == (6, 2, 512)
    for s in range(6):
        for row, fb in enumerate(failed):
            assert np.array_equal(out[s, row], expect[s][row])


def test_engine_accounting_and_helper_loss():
    code = get_code(4, 2, 8)
    engine = BatchRepairEngine(code)
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, size=(4, 128)).astype(np.uint8)
    blocks = code.encode_stripe(data)
    item = StripeBatchItem(
        stripe_id=0, survivors=(0, 1, 2, 3), failed=(4,), sources=[blocks[i] for i in range(4)]
    )
    res = engine.repair_items([item])
    assert res.gf_bytes == 4 * 128
    assert res.compute_seconds > 0
    # a helper dies: its plans leave the cache, stats reflect it
    assert engine.on_helper_lost(2) == 1
    assert engine.stats()["invalidations"] == 1
    res2 = engine.repair_items([item])
    assert res2.plan_misses == 1  # rebuilt after invalidation
    assert np.array_equal(res2.outputs[0][4], blocks[4])


def test_engine_obs_spans_and_metrics():
    """One ``batch`` span per (pattern, length) group plus the ``batch.*`` series."""
    from repro.obs import Observability

    code = get_code(4, 2, 8)
    obs = Observability()
    engine = BatchRepairEngine(code, obs=obs)
    blocks = code.encode_stripe(
        np.random.default_rng(14).integers(0, 256, size=(4, 64)).astype(np.uint8)
    )
    items = [
        StripeBatchItem(sid, (0, 1, 2, 3), (4,), [blocks[i] for i in range(4)])
        for sid in (0, 1)
    ] + [StripeBatchItem(2, (1, 2, 3, 4), (0,), [blocks[i] for i in (1, 2, 3, 4)])]
    res = engine.repair_items(items)
    spans = obs.tracer.find(cat="batch")
    assert [s.name for s in spans] == ["batch:g0", "batch:g1"]
    assert spans[0].args["stripes"] == [0, 1] and spans[1].args["stripes"] == [2]
    m = obs.metrics
    assert m.counter("batch.groups").value == res.groups == 2
    assert m.counter("batch.stripes").value == 3
    assert m.counter("batch.plan_misses").value == res.plan_misses == 2
    assert m.counter("batch.gf_bytes").value == res.gf_bytes == 3 * 4 * 64


def test_engine_error_is_the_same_attached_and_detached():
    """A group that fails to stack raises its own error and closes its span."""
    from repro.obs import Observability

    code = get_code(4, 2, 8)
    blocks = code.encode_stripe(
        np.random.default_rng(15).integers(0, 256, size=(4, 64)).astype(np.uint8)
    )
    ragged = StripeBatchItem(0, (0, 1, 2, 3), (4,), [*blocks[:3], blocks[3][:32]])
    obs = Observability()
    for engine in (BatchRepairEngine(code), BatchRepairEngine(code, obs=obs)):
        with pytest.raises(ValueError, match="could not broadcast"):
            engine.repair_items([ragged])
    assert obs.tracer.open_spans() == []
    assert [s.name for s in obs.tracer.find(cat="batch")] == ["batch:g0"]


def test_engine_rejects_wrong_row_count():
    code = get_code(4, 2, 8)
    engine = BatchRepairEngine(code)
    with pytest.raises(ValueError):
        engine.decode_batch((0, 1, 2, 3), (4,), np.zeros((2, 3, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        engine.decode_batch((0, 1, 2, 3), (4,), np.zeros((3, 8), dtype=np.uint8))


def test_engine_respects_w16_code():
    code = RSCode(3, 2, GF(16))
    engine = BatchRepairEngine(code)
    rng = np.random.default_rng(21)
    data = rng.integers(0, 1 << 16, size=(3, 300)).astype(np.uint16)
    blocks = code.encode_stripe(data)
    item = StripeBatchItem(
        stripe_id=0, survivors=(0, 1, 2), failed=(3, 4), sources=[blocks[i] for i in range(3)]
    )
    res = engine.repair_items([item])
    assert np.array_equal(res.outputs[0][3], blocks[3])
    assert np.array_equal(res.outputs[0][4], blocks[4])
