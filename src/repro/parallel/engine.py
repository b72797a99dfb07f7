"""The pooled batch-repair engine: same math, many cores.

:class:`ParallelRepairEngine` is a :class:`repro.repair.batch.BatchRepairEngine`
whose GF plane matmul runs through a :class:`repro.parallel.pool.WorkerPool`
instead of inline.  Everything else — pattern grouping, plan caching,
per-stripe accounting, the batch spans — is inherited unchanged, so the
engine drops into every seam that accepts a ``BatchRepairEngine``.  It is
library API beside the repair path: repair rounds combine inline, one
stripe's plane never repays pool dispatch (``docs/PARALLEL.md``).

Bit-exactness contract: each worker decodes its column shard with the very
kernel tier the serial engine selected (see :mod:`repro.gf.backend` — the
backend *name* rides the pool initializer across the fork boundary), and
every output column belongs to exactly one shard, so the pooled product
equals the serial product byte for byte — for any worker count, any
backend, healthy or mid-storm.  ``workers=1`` never touches a process at
all.

Observability (when an :class:`repro.obs.Observability` session is
attached): op-domain ``parallel`` spans per pooled kernel call, and the
``parallel.*`` metric series — shard counts, per-shard decode seconds,
queue depth, and worker utilization.
"""

from __future__ import annotations

import numpy as np

from repro.repair.batch import BatchRepairEngine, PlanCache
from repro.gf.field import GF

from .pool import DEFAULT_MIN_PARALLEL_COLS, ShardStat, WorkerPool


class ParallelRepairEngine(BatchRepairEngine):
    """Batch repair with the plane matmul sharded across worker processes.

    Parameters
    ----------
    code:
        The :class:`repro.ec.rs.RSCode` being repaired (fixes the field).
    cache / obs:
        Forwarded to :class:`~repro.repair.batch.BatchRepairEngine`.
    workers:
        Worker-process count; ``None`` means the machine's CPU count and
        ``1`` is the bit-exact serial fallback (no processes ever start).
    pool:
        An existing :class:`WorkerPool` to share between engines; the
        engine then does **not** own its lifetime.  Mutually exclusive
        with ``workers``/``min_parallel_cols``.
    min_parallel_cols:
        Planes narrower than this decode inline even with workers > 1.
    backend:
        Kernel-tier spec (name, :class:`~repro.gf.backend.KernelBackend`
        instance, or ``None`` for auto-selection), forwarded both to the
        serial base engine and to an owned pool so inline and pooled
        decodes run the same tier.  When sharing an external ``pool`` the
        pool's own spec wins for pooled shards.
    """

    def __init__(
        self,
        code,
        cache: PlanCache | None = None,
        obs=None,
        *,
        workers: int | None = None,
        pool: WorkerPool | None = None,
        min_parallel_cols: int = DEFAULT_MIN_PARALLEL_COLS,
        backend=None,
    ):
        super().__init__(code, cache=cache, obs=obs, backend=backend)
        if pool is not None and workers is not None:
            raise ValueError("pass either a pool or a workers count, not both")
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = WorkerPool(
                workers=workers,
                min_parallel_cols=min_parallel_cols,
                backend=self.backend,
            )
            self._owns_pool = True

    @property
    def workers(self) -> int:
        return self.pool.workers

    # -------------------------------------------------------------- #
    # the single overridden seam
    # -------------------------------------------------------------- #
    def _plane_matmul(
        self, mat: np.ndarray, plane: np.ndarray, item_len: int | None = None
    ) -> np.ndarray:
        """Shard ``mat @ plane`` over the pool; account shards to obs."""
        field: GF = self.code.field
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "parallel:decode", actor="parallel-engine", cat="parallel",
                workers=self.pool.workers, cols=int(plane.shape[1]),
            )
        st0_dispatches = self.pool.stats.dispatches
        try:
            out, shards = self.pool.decode_plane(mat, plane, field, item_len)
        finally:
            if span is not None:
                obs.tracer.end(span)
        if obs is not None:
            pooled = self.pool.stats.dispatches > st0_dispatches
            self._record_metrics(shards, pooled)
        return out

    def _record_metrics(self, shards: list[ShardStat], pooled: bool) -> None:
        m = self.obs.metrics
        m.counter("parallel.calls").inc()
        if not pooled:
            m.counter("parallel.inline_calls").inc()
            return
        m.counter("parallel.dispatches").inc()
        m.counter("parallel.shards").inc(len(shards))
        hist = m.histogram("parallel.shard_seconds")
        for s in shards:
            hist.observe(s.seconds)
        m.gauge("parallel.queue_depth").set(len(shards))
        m.gauge("parallel.worker_utilization").set(
            self.pool.stats.utilization(self.pool.workers)
        )

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    def close(self) -> None:
        """Reap the worker processes if this engine owns them (idempotent)."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "ParallelRepairEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Plan-cache stats plus the pool's dispatch/utilization accounting."""
        out = super().stats()
        st = self.pool.stats
        out.update(
            workers=self.pool.workers,
            pool_dispatches=st.dispatches,
            pool_inline_calls=st.inline_calls,
            pool_shards=st.shards,
            pool_busy_seconds=st.busy_seconds,
            pool_wall_seconds=st.wall_seconds,
            pool_utilization=st.utilization(self.pool.workers),
        )
        return out
