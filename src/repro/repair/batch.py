"""Batched multi-stripe repair: pattern grouping and decode-plan caching.

When a whole node dies, every stripe that kept a block on it needs repair —
but the stripes are not all *different* repairs.  A stripe's decode work is
fully determined by its **erasure pattern**: the code parameters plus which
block indices survive and which are lost.  Stripes sharing a pattern share
the inverted decode matrix and can be repaired together:

* :class:`PlanCache` — a bounded LRU of :class:`DecodePlan` objects keyed
  by :class:`PatternKey` (code params + surviving-helper set + failed set),
  with hit/miss/eviction/invalidation accounting — the system-level
  cache over :meth:`repro.ec.rs.RSCode.repair_matrix`, so a pattern is
  inverted once however many planners and caches ask for it.
* :func:`group_by_pattern` — deterministic grouping of per-stripe repair
  items into :class:`PatternGroup` lists.
* :class:`BatchRepairEngine` — stacks each group's survivor buffers into
  one source plane and runs a single kernel-backend matmul per group
  instead of one decode per stripe.  Bit-exact with the per-stripe path
  by construction; the property/differential tests assert it over
  randomized patterns.

The engine is observable: given an :class:`repro.obs.Observability`
session it emits one ``batch`` span per pattern group and ``batch.*``
metric series; detached it is a plain fast path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.ec.rs import RSCode
from repro.gf.backend import select_backend


@dataclass(frozen=True)
class PatternKey:
    """What makes two stripe repairs interchangeable.

    Two stripes with equal keys decode through the same matrix: same code
    (word size, construction, k, m), same surviving-helper block indices,
    same failed block indices.  Node placement is deliberately absent —
    the decode matrix only depends on *block indices*, so stripes whose
    blocks live on entirely different nodes still share a plan.
    """

    w: int
    construction: str
    k: int
    m: int
    survivors: tuple[int, ...]
    failed: tuple[int, ...]


def pattern_key(code: RSCode, survivor_ids, failed_ids) -> PatternKey:
    """Build (and validate) the cache key for one erasure pattern."""
    survivors = tuple(sorted(int(i) for i in survivor_ids))
    failed = tuple(int(i) for i in failed_ids)
    if len(set(survivors)) != code.k:
        raise ValueError(f"need exactly k={code.k} distinct survivors")
    if not failed:
        raise ValueError("empty failed set")
    if len(set(failed)) != len(failed):
        raise ValueError("failed block indices must be distinct")
    if set(survivors) & set(failed):
        raise ValueError("survivor and failed sets overlap")
    for i in survivors + failed:
        if not 0 <= i < code.n:
            raise ValueError(f"block index {i} out of range 0..{code.n - 1}")
    return PatternKey(
        w=code.field.w,
        construction=code.construction,
        k=code.k,
        m=code.m,
        survivors=survivors,
        failed=failed,
    )


@dataclass(frozen=True)
class DecodePlan:
    """One cached repair solution: the inverted decode matrix for a pattern.

    ``matrix`` is the (f, k) combination matrix R with
    ``failed = R @ survivors`` (survivors in ascending block-index order,
    failed in the key's order).  Read-only; shared freely across stripes.
    """

    key: PatternKey
    matrix: np.ndarray = field(repr=False)

    @property
    def f(self) -> int:
        return len(self.key.failed)


def build_decode_plan(code: RSCode, survivor_ids, failed_ids) -> DecodePlan:
    """The pattern's R through the code's own LRU (cache-miss slow path):
    a pattern a planner already inverted is not inverted again."""
    key = pattern_key(code, survivor_ids, failed_ids)
    return DecodePlan(key=key, matrix=code.repair_matrix(key.survivors, key.failed))


class PlanCache:
    """Bounded LRU of decode plans with full accounting.

    The coordinator keeps one cache per system; multi-node repairs ask it
    for one plan per *pattern group* instead of re-inverting per stripe.
    ``invalidate_survivor`` evicts every plan whose surviving-helper set
    contains a given block index — the mid-storm hook for when a helper
    dies and plans built over it must not be served again.

    Thread-safe: a reentrant lock guards lookups, LRU moves, counter
    bumps, and invalidations, so concurrent wave dispatch (the parallel
    path's thread-level fan-out) cannot corrupt the OrderedDict or lose
    hit/miss/eviction counts.  Plans themselves are immutable and safe to
    share once returned.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[PatternKey, DecodePlan] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PatternKey) -> bool:
        with self._lock:
            return key in self._entries

    def plan_for(self, code: RSCode, survivor_ids, failed_ids) -> DecodePlan:
        """The decode plan for a pattern: LRU hit or build-and-insert."""
        key = pattern_key(code, survivor_ids, failed_ids)
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return plan
            self.misses += 1
        # Invert outside the lock: matrix inversion is the slow path and
        # must not serialize concurrent hits on other patterns.
        plan = build_decode_plan(code, key.survivors, key.failed)
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:
                # Another thread built the same plan first; serve its copy
                # so every caller shares one matrix per pattern.
                self._entries.move_to_end(key)
                return raced
            self._entries[key] = plan
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return plan

    def peek(self, key: PatternKey) -> DecodePlan | None:
        """Lookup without touching LRU order or hit/miss counters."""
        with self._lock:
            return self._entries.get(key)

    # -------------------------------------------------------------- #
    # invalidation
    # -------------------------------------------------------------- #
    def invalidate_where(self, predicate: Callable[[PatternKey], bool]) -> int:
        """Evict every plan whose key matches; returns the eviction count."""
        with self._lock:
            doomed = [k for k in self._entries if predicate(k)]
            for k in doomed:
                del self._entries[k]
            self.invalidations += len(doomed)
            return len(doomed)

    def invalidate_survivor(self, block_index: int) -> int:
        """Evict plans that decode *through* a now-unusable helper block."""
        b = int(block_index)
        return self.invalidate_where(lambda key: b in key.survivors)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are lifetime totals)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def stats(self) -> dict:
        """Lifetime accounting snapshot (what the batched repair reports)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }


@dataclass
class StripeBatchItem:
    """One stripe's membership in a batched repair.

    ``sources`` holds the k survivor buffers in ascending survivor
    block-index order (matching :attr:`DecodePlan.matrix` columns);
    ``failed`` lists the lost block indices in output order.
    """

    stripe_id: int
    survivors: tuple[int, ...]
    failed: tuple[int, ...]
    sources: Sequence[np.ndarray]

    def __post_init__(self) -> None:
        self.survivors = tuple(int(b) for b in self.survivors)
        self.failed = tuple(int(b) for b in self.failed)
        if list(self.survivors) != sorted(set(self.survivors)):
            raise ValueError("survivors must be sorted and distinct")
        if len(self.sources) != len(self.survivors):
            raise ValueError(
                f"{len(self.survivors)} survivors but {len(self.sources)} source buffers"
            )


@dataclass
class PatternGroup:
    """All stripes of one batch that share an erasure pattern."""

    key: PatternKey
    items: list[StripeBatchItem]

    @property
    def stripe_ids(self) -> list[int]:
        return [it.stripe_id for it in self.items]

    def __len__(self) -> int:
        return len(self.items)


def group_by_pattern(code: RSCode, items: Iterable[StripeBatchItem]) -> list[PatternGroup]:
    """Deterministically bucket batch items by erasure pattern.

    Groups appear in first-occurrence order (stable under the caller's
    stripe ordering), items keep their relative order inside each group.
    """
    groups: OrderedDict[PatternKey, PatternGroup] = OrderedDict()
    for item in items:
        key = pattern_key(code, item.survivors, item.failed)
        grp = groups.get(key)
        if grp is None:
            groups[key] = PatternGroup(key=key, items=[item])
        else:
            grp.items.append(item)
    return list(groups.values())


@dataclass
class BatchDecodeResult:
    """What one engine run produced, plus the accounting the caller meters."""

    #: stripe id -> failed block index -> repaired buffer
    outputs: dict[int, dict[int, np.ndarray]]
    groups: int
    stripes: int
    gf_bytes: int
    compute_seconds: float
    plan_hits: int
    plan_misses: int


class BatchRepairEngine:
    """Repairs many stripes per GF kernel call, one call per pattern group.

    The engine owns no buffers and mutates nothing outside its
    :class:`PlanCache`; callers hand it survivor bytes and receive repaired
    blocks: the library's stacked-decode API (the serving plane's degraded
    reads, bare benchmarks).  Repair rounds do not come through here — they
    execute their plans op by op (:func:`repro.system.agent.run_plan_ops`).

    ``backend`` selects the GF kernel tier running the plane matmul: a
    :mod:`repro.gf.backend` name (``"numpy"``, ``"native"``) or ``None``
    for auto-selection (``REPRO_GF_BACKEND`` override → first available).
    Both tiers are bit-exact, so the choice only moves throughput.
    """

    def __init__(
        self, code: RSCode, cache: PlanCache | None = None, obs=None, backend=None
    ):
        self.code = code
        self.cache = cache if cache is not None else PlanCache()
        #: optional :class:`repro.obs.Observability` session for spans/metrics.
        self.obs = obs
        #: the selected GF kernel tier (resolved once, at construction).
        self.backend = select_backend(code.field.w, override=backend)

    # -------------------------------------------------------------- #
    # core kernels
    # -------------------------------------------------------------- #
    def decode_batch(self, survivor_ids, failed_ids, stacked: np.ndarray) -> np.ndarray:
        """Decode S same-pattern stripes at once: (S, k, B) -> (S, f, B).

        ``stacked[s, t]`` is stripe ``s``'s buffer for the t-th survivor in
        ascending block-index order.  Single-stripe batches (S = 1) are the
        degenerate case and remain bit-exact with per-stripe decode.
        """
        stacked = np.asarray(stacked, dtype=self.code.field.dtype)
        if stacked.ndim != 3:
            raise ValueError(f"stacked must be (S, k, B), got {stacked.shape}")
        plan = self.cache.plan_for(self.code, survivor_ids, failed_ids)
        s, k, b = stacked.shape
        if k != self.code.k:
            raise ValueError(f"stacked has {k} source rows, need k={self.code.k}")
        plane = stacked.transpose(1, 0, 2).reshape(k, s * b)
        out = self.backend.plane_matmul(plan.matrix, plane, self.code.field)
        return np.ascontiguousarray(
            out.reshape(plan.f, s, b).transpose(1, 0, 2)
        )

    def repair_items(self, items: Sequence[StripeBatchItem]) -> BatchDecodeResult:
        """Group, stack, and decode a heterogeneous batch of stripe repairs.

        Items may mix patterns and buffer lengths arbitrarily; stripes only
        share a kernel call when both their pattern and their block length
        agree.  Returns per-stripe repaired buffers plus accounting.
        """
        import time

        field_ = self.code.field
        hits0, misses0 = self.cache.hits, self.cache.misses
        outputs: dict[int, dict[int, np.ndarray]] = {}
        gf_bytes = 0
        compute_s = 0.0
        groups = group_by_pattern(self.code, items)
        obs = self.obs
        for gi, grp in enumerate(groups):
            # split further by block length: stacking demands equal B
            by_len: OrderedDict[int, list[StripeBatchItem]] = OrderedDict()
            for it in grp.items:
                length = int(np.asarray(it.sources[0]).shape[-1])
                by_len.setdefault(length, []).append(it)
            for length, subitems in by_len.items():
                span = None
                if obs is not None:
                    span = obs.tracer.begin(
                        f"batch:g{gi}", actor="batch-engine", cat="batch",
                        pattern_failed=list(grp.key.failed),
                        stripes=[it.stripe_id for it in subitems],
                        block_bytes=length,
                    )
                try:
                    plane = np.empty(
                        (self.code.k, len(subitems) * length), dtype=field_.dtype
                    )
                    for s, it in enumerate(subitems):
                        for t, src in enumerate(it.sources):
                            plane[t, s * length : (s + 1) * length] = src
                    plan = self.cache.plan_for(
                        self.code, grp.key.survivors, grp.key.failed
                    )
                    t0 = time.perf_counter()
                    decoded = self.backend.plane_matmul(plan.matrix, plane, field_)
                    dt = time.perf_counter() - t0
                    compute_s += dt
                    nbytes = plane.size * plane.itemsize
                    gf_bytes += nbytes
                    for s, it in enumerate(subitems):
                        per_stripe = outputs.setdefault(it.stripe_id, {})
                        for row, fb in enumerate(it.failed):
                            per_stripe[fb] = np.ascontiguousarray(
                                decoded[row, s * length : (s + 1) * length]
                            )
                    if span is not None:
                        span.args.update(seconds=dt, bytes=nbytes)
                finally:
                    if span is not None:
                        obs.tracer.unwind(span)
        if obs is not None:
            m = obs.metrics
            m.counter("batch.groups").inc(len(groups))
            m.counter("batch.stripes").inc(len(items))
            m.counter("batch.gf_bytes").inc(gf_bytes)
            m.counter("batch.plan_hits").inc(self.cache.hits - hits0)
            m.counter("batch.plan_misses").inc(self.cache.misses - misses0)
        return BatchDecodeResult(
            outputs=outputs,
            groups=len(groups),
            stripes=len(items),
            gf_bytes=gf_bytes,
            compute_seconds=compute_s,
            plan_hits=self.cache.hits - hits0,
            plan_misses=self.cache.misses - misses0,
        )

    # -------------------------------------------------------------- #
    # storm plumbing
    # -------------------------------------------------------------- #
    def on_helper_lost(self, block_index: int) -> int:
        """A surviving-helper block became unusable mid-storm: evict its plans.

        Returns how many cached plans were invalidated.  Fresh patterns
        (not routed through the dead helper) are rebuilt on next use.
        """
        return self.cache.invalidate_survivor(block_index)

    def stats(self) -> dict:
        out = self.cache.stats()
        out["backend"] = self.backend.name
        return out
