"""Repair-duration oracle: the actual engines' makespans, never an MTTR.

The whole point of the durability simulator is that repair speed feeds
back into the window of vulnerability, so repair durations must come from
the same planners and fluid simulator the rest of the repo benchmarks —
per scheme (CR / IR / HMBR), per failure multiplicity, scaled by how many
stripes the failed node touched and how many repairs are already in
flight.  Two modes:

* ``"exact"`` — every repair event builds a small :func:`_build_twin`
  coordinator from the current macro state and runs the metadata-only
  fast path (:meth:`Coordinator.plan_repair
  <repro.system.coordinator.Coordinator.plan_repair>`) on it; with
  ``materialize=True`` the twin holds real bytes and the event runs a
  full byte repair instead (the differential suite pins both modes to
  identical event streams).  Affordable on small clusters only.
* ``"calibrated"`` — macro scale.  Per ``(scheme, f)`` the model plans
  canonical groups of R stripes sharing f dead nodes through the fast
  path, least-squares fits ``makespan ≈ a + b·R``, and multiplies by a
  measured concurrency factor (merged c-failure rounds vs. one).  All
  calibration numbers come from fluid solves of real plans; the fit only
  interpolates between them.
"""

from __future__ import annotations

import numpy as np

from repro.ec.stripe import StripeMeta

#: stripe-count grid each (scheme, f) base fit is measured on.
CALIBRATION_GRID = (1, 2, 4, 8)
#: concurrent-failure grid the load factor is measured on.
LOAD_GRID = (1, 2, 4)
#: stripes per failure group in the load-factor measurement.
_LOAD_STRIPES = 4


def _build_twin(
    *,
    k: int,
    m: int,
    metas,
    dead_nodes,
    n_nodes: int,
    rack_size: int,
    bandwidth_mbps: float,
    block_size_mb: float,
    block_bytes: int = 512,
    materialize: bool = False,
    payload_seed: int = 2023,
    field=None,
):
    """A small live :class:`~repro.system.coordinator.Coordinator` mirroring
    a slice of macro state.

    Node ids ``0..n_nodes-1`` mirror the macro cluster (rack = id //
    rack_size, homogeneous ``bandwidth_mbps``); one fresh spare per dead
    node is appended after, in the dead node's rack (so spare assignment
    preserves rack-aware placement like a real replacement chassis).
    ``metas`` (an iterable of :class:`~repro.ec.stripe.StripeMeta`) are
    installed with their macro placements verbatim; with ``materialize``
    their payloads are seeded, encoded, and stored before the dead nodes
    crash — the twin then supports full byte repairs, and the differential
    suite pins that both flavors time identically.
    """
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster
    from repro.ec.rs import RSCode
    from repro.ec.stripe import block_name
    from repro.system.coordinator import Coordinator

    dead = sorted(set(int(d) for d in dead_nodes))
    cluster = Cluster(
        [
            Node(i, bandwidth_mbps, bandwidth_mbps, rack=i // rack_size)
            for i in range(n_nodes)
        ]
    )
    from repro.gf.field import gf8

    coord = Coordinator(
        cluster,
        RSCode(k, m, gf8 if field is None else field),
        block_bytes=block_bytes,
        block_size_mb=block_size_mb,
        rng=0,
    )
    for j, d in enumerate(dead):
        coord.add_spare(
            Node(
                n_nodes + j,
                bandwidth_mbps,
                bandwidth_mbps,
                rack=cluster[d].rack,
            )
        )
    payload_rng = np.random.default_rng(payload_seed) if materialize else None
    dtype = np.dtype(coord.code.field.dtype)
    shape = (k, block_bytes * dtype.itemsize)
    for meta in metas:
        stripe = meta.to_stripe()
        coord.layout.add(stripe)
        if materialize:
            blocks = payload_rng.integers(0, 256, size=shape, dtype=np.uint8).view(dtype)
            for b, block in enumerate([*blocks, *coord.code.encode(blocks)]):
                coord.agents[stripe.placement[b]].store_block(block_name(stripe.stripe_id, b), block)
    for d in dead:
        coord.crash_node(d)
    return coord


class RepairTimingModel:
    """Engine-derived repair durations for the reliability simulator.

    ``spec`` is a :class:`~repro.reliability.simulator.ReliabilitySpec`
    (duck-typed: only its shape/bandwidth/twin fields are read).  All
    calibration is lazy and cached per (scheme, f) / (scheme, c), so a
    trial only pays for the failure multiplicities it actually sees;
    :meth:`calibration_rows` reports every measured point for goldens and
    bench artifacts.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self._fits: dict[tuple[str, int], tuple[float, float]] = {}
        self._load: dict[str, list[tuple[int, float]]] = {}
        self._rows: list[dict] = []

    # ------------------------------------------------------------------ #
    # public oracle
    # ------------------------------------------------------------------ #
    def duration_s(
        self, scheme: str, f: int, n_stripes: int, concurrent: int = 1
    ) -> float:
        """Seconds to rebuild a node whose loss degraded ``n_stripes``
        stripes at failure multiplicity ``f``, with ``concurrent`` repairs
        (including this one) in flight."""
        a, b = self._fit_for(scheme, max(1, int(f)))
        base = a + b * max(0, int(n_stripes))
        return base * self.load_factor(concurrent, scheme)

    def load_factor(self, concurrent: int, scheme: str | None = None) -> float:
        """Measured stretch from ``concurrent`` repairs sharing the cluster.

        Piecewise-linear in the measured :data:`LOAD_GRID` points,
        extrapolated with the last segment's slope, never below 1.
        """
        scheme = scheme or self.spec.scheme
        c = max(1, int(concurrent))
        pts = self._load_for(scheme)
        if c <= pts[0][0]:
            return max(1.0, pts[0][1])
        for (c0, f0), (c1, f1) in zip(pts, pts[1:]):
            if c <= c1:
                frac = (c - c0) / (c1 - c0)
                return max(1.0, f0 + frac * (f1 - f0))
        (c0, f0), (c1, f1) = pts[-2], pts[-1]
        slope = (f1 - f0) / (c1 - c0)
        return max(1.0, f1 + slope * (c - c1))

    def exact_event_duration_s(self, metas, dead_nodes, materialize: bool = False) -> float:
        """One event's makespan from a per-event twin of the macro state.

        Metadata mode runs the fast path (:meth:`plan_repair`); byte mode
        materializes the twin and runs a real repair — the returned
        makespan is bit-identical because both feed the same task DAG to
        the same fluid solve, which is exactly the fast-path contract.
        """
        spec = self.spec
        coord = _build_twin(
            k=spec.k,
            m=spec.m,
            metas=metas,
            dead_nodes=dead_nodes,
            n_nodes=spec.n_nodes,
            rack_size=spec.rack_size,
            bandwidth_mbps=spec.bandwidth_mbps,
            block_size_mb=spec.block_size_mb,
            block_bytes=spec.twin_block_bytes,
            materialize=materialize,
        )
        if materialize:
            from repro.system.request import RepairRequest

            return coord.repair(RepairRequest(scheme=spec.scheme)).makespan_s
        return coord.plan_repair(spec.scheme).makespan_s

    def calibration_rows(self) -> list[dict]:
        """Every measured calibration point (for reports and goldens)."""
        return [dict(r) for r in self._rows]

    # ------------------------------------------------------------------ #
    # base fit: makespan(scheme, f, R) ≈ a + b·R
    # ------------------------------------------------------------------ #
    def _fit_for(self, scheme: str, f: int) -> tuple[float, float]:
        key = (scheme, f)
        fit = self._fits.get(key)
        if fit is None:
            fit = self._calibrate_base(scheme, f)
            self._fits[key] = fit
        return fit

    def _calibrate_base(self, scheme: str, f: int) -> tuple[float, float]:
        xs, ys = [], []
        for n_stripes in CALIBRATION_GRID:
            makespan = self._canonical_makespan(scheme, f, n_stripes)
            xs.append(float(n_stripes))
            ys.append(makespan)
            self._rows.append(
                {
                    "kind": "base",
                    "scheme": scheme,
                    "f": f,
                    "stripes": n_stripes,
                    "makespan_s": makespan,
                }
            )
        x = np.asarray(xs)
        y = np.asarray(ys)
        var = float(np.var(x))
        b = max(0.0, float(np.cov(x, y, bias=True)[0, 1]) / var) if var else 0.0
        a = max(0.0, float(np.mean(y)) - b * float(np.mean(x)))
        return a, b

    def _canonical_makespan(self, scheme: str, f: int, n_stripes: int) -> float:
        """Fast-path makespan of R canonical stripes sharing f dead nodes.

        Stripe r holds blocks on the shared dead set {0..f-1} plus its own
        disjoint survivor span, so the group is the textbook "one chassis
        lost, R stripes degraded at multiplicity f" workload.
        """
        spec = self.spec
        width = spec.k + spec.m
        if f >= width:
            raise ValueError(f"f={f} must be < stripe width {width}")
        dead = list(range(f))
        span = width - f
        metas = [
            StripeMeta(
                r,
                spec.k,
                spec.m,
                tuple(dead) + tuple(f + r * span + j for j in range(span)),
            )
            for r in range(n_stripes)
        ]
        coord = _build_twin(
            k=spec.k,
            m=spec.m,
            metas=metas,
            dead_nodes=dead,
            n_nodes=f + n_stripes * span,
            rack_size=spec.rack_size,
            bandwidth_mbps=spec.bandwidth_mbps,
            block_size_mb=spec.block_size_mb,
            block_bytes=spec.twin_block_bytes,
        )
        return coord.plan_repair(scheme).makespan_s

    # ------------------------------------------------------------------ #
    # load factor: merged c-failure rounds vs. one
    # ------------------------------------------------------------------ #
    def _load_for(self, scheme: str) -> list[tuple[int, float]]:
        pts = self._load.get(scheme)
        if pts is None:
            pts = self._calibrate_load(scheme)
            self._load[scheme] = pts
        return pts

    def _calibrate_load(self, scheme: str) -> list[tuple[int, float]]:
        """Measure the concurrency stretch on overlapping survivor pools.

        ``c`` failure groups (one dead node + :data:`_LOAD_STRIPES`
        stripes each) draw their survivors from one shared node pool, so
        their merged fast-path round contends exactly where real
        concurrent repairs do.  The factor is the merged makespan over the
        single-group makespan.
        """
        spec = self.spec
        width = spec.k + spec.m
        c_max = max(LOAD_GRID)
        pool = 2 * (width - 1)
        rng = np.random.default_rng(1234)
        groups: list[list[StripeMeta]] = []
        sid = 0
        for g in range(c_max):
            metas = []
            for _ in range(_LOAD_STRIPES):
                survivors = rng.choice(pool, size=width - 1, replace=False)
                metas.append(
                    StripeMeta(
                        sid,
                        spec.k,
                        spec.m,
                        (g,) + tuple(int(c_max + s) for s in sorted(survivors)),
                    )
                )
                sid += 1
            groups.append(metas)
        n_nodes = c_max + pool

        def merged_makespan(c: int) -> float:
            coord = _build_twin(
                k=spec.k,
                m=spec.m,
                metas=[meta for g in range(c) for meta in groups[g]],
                dead_nodes=list(range(c)),
                n_nodes=n_nodes,
                rack_size=spec.rack_size,
                bandwidth_mbps=spec.bandwidth_mbps,
                block_size_mb=spec.block_size_mb,
                block_bytes=spec.twin_block_bytes,
            )
            return coord.plan_repair(scheme).makespan_s

        base = merged_makespan(1)
        pts: list[tuple[int, float]] = []
        for c in LOAD_GRID:
            factor = 1.0 if c == 1 else max(1.0, merged_makespan(c) / base)
            pts.append((c, factor))
            self._rows.append(
                {
                    "kind": "load",
                    "scheme": scheme,
                    "concurrent": c,
                    "factor": factor,
                }
            )
        return pts
