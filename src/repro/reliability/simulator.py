"""Seeded event-driven durability simulator over millions of stripes.

The paper's claim that multi-block repair "boosts" wide stripes is, at
bottom, a durability claim: faster repair closes the window of
vulnerability, so fewer stripes ever see ``> m`` concurrent losses.  This
module advances simulated decades over a macro cluster — Weibull node
lifetimes, correlated rack/power-outage bursts, latent sector errors with
periodic scrubbing — and every repair duration comes from the **actual
repair engines** via :class:`~repro.reliability.timing.RepairTimingModel`
(the metadata-only fast path), never a constant MTTR.

Cross-scheme comparisons use common random numbers: the failure history of
a trial is a pure function of ``(seed, trial)`` and never of the scheme, so
a scheme only distinguishes itself by how fast it repairs.

Entry points: :class:`ReliabilitySpec` → :class:`ReliabilitySimulator.run`
→ :class:`ReliabilityReport` (or the
:meth:`repro.system.Coordinator.simulate_years` facade, which inherits the
code shape).  See ``docs/RELIABILITY.md``.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from repro.reliability.events import (
    BURST,
    FAIL,
    LSE,
    REPAIR_DONE,
    SCRUB,
    EventQueue,
)
from repro.reliability.lifetimes import ComponentLifetimes, Weibull
from repro.reliability.timing import RepairTimingModel

#: one year of simulated time, matching :mod:`repro.analysis.reliability`.
HOURS_PER_YEAR = 24 * 365.25

#: at most this many loss records / logged events are kept per trial.
_LOSS_RECORD_CAP = 1000
_EVENT_LOG_CAP = 200_000


def _wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Behaves sensibly at the extremes (0 or n successes give non-degenerate
    bounds), which is exactly what durability estimation needs: a scheme
    with *zero* observed losses still gets a finite upper bound on its loss
    probability, so "nines" stay comparable across schemes.
    """
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def _sample_placements(
    rng: np.random.Generator, n_stripes: int, width: int, n_nodes: int
) -> np.ndarray:
    """Uniform distinct-node placements, chunked for millions of stripes.

    Returns an ``(n_stripes, width)`` int32 array; each row is a sorted
    ``width``-subset of ``range(n_nodes)``.  Drawn via argpartition of a
    random matrix — one vectorized pass per 64k-stripe chunk instead of a
    Python loop over stripes.
    """
    if width > n_nodes:
        raise ValueError(f"stripe width {width} exceeds cluster size {n_nodes}")
    out = np.empty((n_stripes, width), dtype=np.int32)
    chunk = 1 << 16
    for lo in range(0, n_stripes, chunk):
        hi = min(lo + chunk, n_stripes)
        keys = rng.random((hi - lo, n_nodes))
        part = np.argpartition(keys, width - 1, axis=1)[:, :width]
        out[lo:hi] = np.sort(part, axis=1)
    return out


def _node_rows(placement: np.ndarray, n_nodes: int) -> list[np.ndarray]:
    """CSR-style map node -> ascending stripe rows holding a block on it."""
    n_stripes, width = placement.shape
    flat = placement.ravel()
    order = np.argsort(flat, kind="stable")
    rows = (order // width).astype(np.int64)
    starts = np.searchsorted(flat[order], np.arange(n_nodes + 1))
    return [rows[starts[i] : starts[i + 1]] for i in range(n_nodes)]


@dataclass(frozen=True)
class ReliabilitySpec:
    """Everything a durability run depends on, in one frozen record.

    ``k`` / ``m`` / ``block_size_mb`` may be left ``None`` when going
    through :meth:`repro.system.Coordinator.simulate_years`, which fills
    them from the live system's code shape.  ``timing`` selects the repair
    duration oracle: ``"calibrated"`` (fit to fast-path fluid solves, macro
    scale) or ``"exact"`` (a per-event metadata twin; with ``materialize``
    the twin holds real bytes — small clusters only, used by the
    differential suite).
    """

    k: int | None = None
    m: int | None = None
    scheme: str = "hmbr"
    n_nodes: int = 40
    rack_size: int = 8
    n_spares: int = 8
    bandwidth_mbps: float = 100.0
    n_stripes: int = 10_000
    block_size_mb: float | None = 64.0
    node_mttf_hours: float = 10.0 * HOURS_PER_YEAR
    weibull_shape: float = 1.12
    burst_rate_per_year: float = 4.0
    burst_loss_fraction: float = 0.25
    lse_rate_per_node_year: float = 0.0
    scrub_interval_hours: float = 336.0
    detection_delay_hours: float = 0.1
    horizon_years: float = 10.0
    n_trials: int = 10
    seed: int = 20230717
    timing: str = "calibrated"
    materialize: bool = False
    twin_stripe_cap: int = 64
    twin_block_bytes: int = 512
    record_events: bool = False
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.timing not in ("calibrated", "exact"):
            raise ValueError(f"timing must be 'calibrated' or 'exact', got {self.timing!r}")
        if self.materialize and self.timing != "exact":
            raise ValueError("materialize=True requires timing='exact'")
        if self.k is not None and self.k <= 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.m is not None and self.m <= 0:
            raise ValueError(f"m must be > 0, got {self.m}")
        if self.k is not None and self.m is not None and self.k + self.m > self.n_nodes:
            raise ValueError(
                f"stripe width {self.k + self.m} exceeds n_nodes={self.n_nodes}"
            )
        if self.n_nodes <= 0 or self.rack_size <= 0:
            raise ValueError("n_nodes and rack_size must be > 0")
        if self.n_spares <= 0:
            raise ValueError(f"need >= 1 spare, got {self.n_spares}")
        if self.n_stripes <= 0 or self.n_trials <= 0:
            raise ValueError("n_stripes and n_trials must be > 0")
        if self.horizon_years <= 0:
            raise ValueError(f"horizon must be > 0 years, got {self.horizon_years}")
        if self.node_mttf_hours <= 0 or self.weibull_shape <= 0:
            raise ValueError("node_mttf_hours and weibull_shape must be > 0")
        if not 0.0 < self.burst_loss_fraction <= 1.0:
            raise ValueError(
                f"burst_loss_fraction must be in (0, 1], got {self.burst_loss_fraction}"
            )
        if self.burst_rate_per_year < 0 or self.lse_rate_per_node_year < 0:
            raise ValueError("event rates must be >= 0")
        if self.detection_delay_hours < 0:
            raise ValueError("detection delay must be >= 0")

    @property
    def width(self) -> int:
        """Stripe width ``k + m`` (requires both set)."""
        return self.k + self.m

    @property
    def horizon_hours(self) -> float:
        """Trial horizon in simulated hours."""
        return self.horizon_years * HOURS_PER_YEAR


@dataclass
class TrialResult:
    """One seeded trial's outcome (a pure function of ``(spec, trial)``)."""

    trial: int
    first_loss_year: float | None
    stripes_lost: int
    n_failures: int
    n_bursts: int
    n_lse: int
    n_scrubs: int
    n_repairs: int
    max_concurrent_repairs: int
    max_spares_in_use: int
    #: first :data:`_LOSS_RECORD_CAP` losses as (time_h, stripe, concurrent).
    loss_records: list[tuple[float, int, int]] = field(default_factory=list)
    #: full (time_h, kind, node) stream when ``spec.record_events`` (capped).
    event_log: list[tuple[float, str, int]] | None = None


@dataclass
class ReliabilityReport:
    """Aggregated durability estimates over independent seeded trials."""

    spec: ReliabilitySpec
    trials: list[TrialResult]
    #: year grid for the loss curve (1, 2, ..., horizon).
    years: list[float]
    #: P(any data loss by year t) per grid point, with Wilson 95% CIs.
    p_loss: list[float]
    p_loss_lo: list[float]
    p_loss_hi: list[float]
    #: observed-years / loss-events estimate; ``None`` with zero losses.
    mttdl_years: float | None
    #: lost stripes over all exposed stripe-years' worth of stripes.
    stripe_loss_rate: float
    #: -log10 of the Wilson *upper* bound on stripe loss probability —
    #: finite even at zero observed losses, so schemes stay comparable.
    durability_nines: float
    #: every engine calibration point the timing model measured.
    calibration: list[dict]

    def nines(self) -> float:
        """Durability nines (see :attr:`durability_nines`)."""
        return self.durability_nines

    def summary(self) -> dict:
        """Canonical JSON-friendly digest (goldens, bench artifacts)."""
        return {
            "scheme": self.spec.scheme,
            "k": self.spec.k,
            "m": self.spec.m,
            "n_nodes": self.spec.n_nodes,
            "n_stripes": self.spec.n_stripes,
            "n_trials": self.spec.n_trials,
            "horizon_years": self.spec.horizon_years,
            "seed": self.spec.seed,
            "timing": self.spec.timing,
            "years": list(self.years),
            "p_loss": list(self.p_loss),
            "p_loss_lo": list(self.p_loss_lo),
            "p_loss_hi": list(self.p_loss_hi),
            "mttdl_years": self.mttdl_years,
            "stripe_loss_rate": self.stripe_loss_rate,
            "durability_nines": self.durability_nines,
            "stripes_lost_total": sum(t.stripes_lost for t in self.trials),
            "failures_total": sum(t.n_failures for t in self.trials),
            "repairs_total": sum(t.n_repairs for t in self.trials),
        }


class ReliabilitySimulator:
    """Run :class:`ReliabilitySpec` trials and aggregate a report.

    Per trial, four independent substreams are spawned from
    ``SeedSequence([spec.seed, trial])`` — placement, lifetimes, bursts,
    latent errors — so every stochastic ingredient is reproducible in
    isolation and the failure history is scheme-independent (common random
    numbers).  Repair durations come from ``timing`` (shared across trials,
    so engine calibration is paid once).
    """

    def __init__(self, spec: ReliabilitySpec, obs=None) -> None:
        if spec.k is None or spec.m is None:
            raise ValueError(
                "spec.k and spec.m must be set (or go through "
                "Coordinator.simulate_years, which fills them)"
            )
        if spec.block_size_mb is None:
            raise ValueError("spec.block_size_mb must be set")
        self.spec = spec
        self.obs = obs
        self.timing = RepairTimingModel(spec)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def run(self) -> ReliabilityReport:
        """All trials → :class:`ReliabilityReport`."""
        spec = self.spec
        obs = self.obs
        root = None
        if obs is not None:
            root = obs.tracer.begin(
                "reliability.simulate", actor="coordinator", cat="reliability",
                scheme=spec.scheme, n_trials=spec.n_trials,
                n_stripes=spec.n_stripes, horizon_years=spec.horizon_years,
            )
        try:
            trials = [self.run_trial(t) for t in range(spec.n_trials)]
        finally:
            if root is not None:
                obs.tracer.unwind(root)

        years = [float(y) for y in range(1, int(math.ceil(spec.horizon_years)) + 1)]
        if years and years[-1] > spec.horizon_years:
            years[-1] = float(spec.horizon_years)
        p_loss, p_lo, p_hi = [], [], []
        for y in years:
            lost = sum(
                1 for t in trials
                if t.first_loss_year is not None and t.first_loss_year <= y
            )
            lo, hi = _wilson_interval(lost, spec.n_trials)
            p_loss.append(lost / spec.n_trials)
            p_lo.append(lo)
            p_hi.append(hi)

        n_losses = sum(1 for t in trials if t.first_loss_year is not None)
        observed_years = sum(
            t.first_loss_year if t.first_loss_year is not None else spec.horizon_years
            for t in trials
        )
        mttdl = observed_years / n_losses if n_losses else None
        stripes_lost = sum(t.stripes_lost for t in trials)
        exposure = spec.n_trials * spec.n_stripes
        _, p_ub = _wilson_interval(stripes_lost, exposure)
        report = ReliabilityReport(
            spec=spec,
            trials=trials,
            years=years,
            p_loss=p_loss,
            p_loss_lo=p_lo,
            p_loss_hi=p_hi,
            mttdl_years=mttdl,
            stripe_loss_rate=stripes_lost / exposure,
            durability_nines=-math.log10(max(p_ub, 1e-300)),
            calibration=self.timing.calibration_rows(),
        )
        if obs is not None:
            m = obs.metrics
            m.counter("reliability.trials").inc(spec.n_trials)
            m.counter("reliability.losses").inc(n_losses)
            m.counter("reliability.stripes_lost").inc(stripes_lost)
            m.gauge("reliability.durability_nines").set(report.durability_nines)
            if mttdl is not None:
                m.gauge("reliability.mttdl_years").set(mttdl)
        return report

    # ------------------------------------------------------------------ #
    # one trial
    # ------------------------------------------------------------------ #
    def run_trial(self, trial: int) -> TrialResult:
        """One seeded trial of ``horizon_years`` simulated years."""
        spec = self.spec
        ss_place, ss_life, ss_burst, ss_lse = np.random.SeedSequence(
            [spec.seed, trial]
        ).spawn(4)
        rng_place = np.random.default_rng(ss_place)
        rng_burst = np.random.default_rng(ss_burst)
        rng_lse = np.random.default_rng(ss_lse)
        lifetimes = ComponentLifetimes(
            ss_life,
            spec.n_nodes,
            Weibull(spec.weibull_shape, spec.node_mttf_hours),
        )

        width = spec.width
        placement = _sample_placements(rng_place, spec.n_stripes, width, spec.n_nodes)
        node_rows = _node_rows(placement, spec.n_nodes)

        failed = np.zeros(spec.n_stripes, dtype=np.int16)
        latent = np.zeros(spec.n_stripes, dtype=np.int16)
        lost = np.zeros(spec.n_stripes, dtype=bool)
        alive = np.ones(spec.n_nodes, dtype=bool)
        gen = [0] * spec.n_nodes

        q = EventQueue()
        horizon_h = spec.horizon_hours
        for node in range(spec.n_nodes):
            q.push(lifetimes.next_lifetime_hours(node), FAIL, node=node, gen=0)
        burst_rate_h = spec.burst_rate_per_year / HOURS_PER_YEAR
        if burst_rate_h > 0:
            q.push(float(rng_burst.exponential(1.0 / burst_rate_h)), BURST)
        lse_rate_h = spec.n_nodes * spec.lse_rate_per_node_year / HOURS_PER_YEAR
        if lse_rate_h > 0:
            q.push(float(rng_lse.exponential(1.0 / lse_rate_h)), LSE)
            if spec.scrub_interval_hours > 0:
                q.push(spec.scrub_interval_hours, SCRUB)

        spares_free = spec.n_spares
        wait_q: collections.deque[int] = collections.deque()
        in_flight: dict[int, int] = {}
        next_eid = 0
        res = TrialResult(
            trial, None, 0, 0, 0, 0, 0, 0, 0, 0,
            event_log=[] if spec.record_events else None,
        )
        n_racks = (spec.n_nodes + spec.rack_size - 1) // spec.rack_size

        def log(time_h: float, kind: str, node: int) -> None:
            if res.event_log is not None and len(res.event_log) < _EVENT_LOG_CAP:
                res.event_log.append((time_h, kind, node))

        def record_loss(time_h: float, rows: np.ndarray, combined: np.ndarray) -> None:
            for row, c in zip(rows.tolist(), combined.tolist()):
                res.stripes_lost += 1
                if res.first_loss_year is None:
                    res.first_loss_year = time_h / HOURS_PER_YEAR
                if len(res.loss_records) < _LOSS_RECORD_CAP:
                    res.loss_records.append((time_h, int(row), int(c)))
                log(time_h, "loss", int(row))

        def check_losses(time_h: float, rows: np.ndarray) -> None:
            if len(rows) == 0:
                return
            combined = failed[rows] + latent[rows]
            bad = combined > spec.m
            if bad.any():
                newly = rows[bad]
                lost[newly] = True
                record_loss(time_h, newly, combined[bad])

        def start_repair(time_h: float, node: int) -> None:
            nonlocal spares_free, next_eid
            spares_free -= 1
            eid = next_eid
            next_eid += 1
            in_flight[eid] = node
            c = len(in_flight)
            res.n_repairs += 1
            res.max_concurrent_repairs = max(res.max_concurrent_repairs, c)
            res.max_spares_in_use = max(
                res.max_spares_in_use, spec.n_spares - spares_free
            )
            rows = node_rows[node]
            live = rows[~lost[rows]]
            if len(live) == 0:
                dur_s = 0.0
            elif spec.timing == "exact":
                dur_s = self._exact_duration_s(placement, live, alive, c)
            else:
                f_eff = min(int(failed[live].max()), spec.m)
                dur_s = self.timing.duration_s(spec.scheme, f_eff, len(live), c)
            q.push(
                time_h + spec.detection_delay_hours + dur_s / 3600.0,
                REPAIR_DONE,
                node=node,
                eid=eid,
            )
            log(time_h, "repair-start", node)

        def kill(time_h: float, node: int) -> None:
            alive[node] = False
            gen[node] += 1
            res.n_failures += 1
            rows = node_rows[node]
            live = rows[~lost[rows]]
            failed[live] += 1
            check_losses(time_h, live)
            log(time_h, "fail", node)
            if spares_free > 0:
                start_repair(time_h, node)
            else:
                wait_q.append(node)

        while len(q) and q.peek_time() <= horizon_h:
            ev = q.pop()
            if ev.kind == FAIL:
                # stale if the node died another way (burst) since scheduling
                if alive[ev.node] and ev.gen == gen[ev.node]:
                    kill(ev.time_h, ev.node)
            elif ev.kind == BURST:
                res.n_bursts += 1
                rack = int(rng_burst.integers(n_racks))
                lo, hi = rack * spec.rack_size, min((rack + 1) * spec.rack_size, spec.n_nodes)
                victims = [n for n in range(lo, hi) if alive[n]]
                n_kill = min(
                    len(victims),
                    max(1, int(round(spec.burst_loss_fraction * spec.rack_size))),
                )
                if n_kill:
                    picks = rng_burst.choice(len(victims), size=n_kill, replace=False)
                    for i in sorted(int(p) for p in picks):
                        kill(ev.time_h, victims[i])
                log(ev.time_h, "burst", rack)
                q.push(
                    ev.time_h + float(rng_burst.exponential(1.0 / burst_rate_h)), BURST
                )
            elif ev.kind == REPAIR_DONE:
                node = in_flight.pop(ev.eid)
                rows = node_rows[node]
                live = rows[~lost[rows]]
                failed[live] -= 1
                alive[node] = True
                q.push(
                    ev.time_h + lifetimes.next_lifetime_hours(node),
                    FAIL,
                    node=node,
                    gen=gen[node],
                )
                spares_free += 1
                log(ev.time_h, "repair-done", node)
                if wait_q:
                    start_repair(ev.time_h, wait_q.popleft())
            elif ev.kind == LSE:
                res.n_lse += 1
                node = int(rng_lse.integers(spec.n_nodes))
                rows = node_rows[node]
                if len(rows):
                    row = int(rows[int(rng_lse.integers(len(rows)))])
                    if not lost[row]:
                        latent[row] += 1
                        check_losses(ev.time_h, np.asarray([row]))
                log(ev.time_h, "lse", node)
                q.push(ev.time_h + float(rng_lse.exponential(1.0 / lse_rate_h)), LSE)
            elif ev.kind == SCRUB:
                res.n_scrubs += 1
                latent[~lost] = 0
                log(ev.time_h, "scrub", -1)
                q.push(ev.time_h + spec.scrub_interval_hours, SCRUB)
            if spec.check_invariants:
                self._check_invariants(spares_free, failed, in_flight, alive)
        return res

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _exact_duration_s(
        self,
        placement: np.ndarray,
        live_rows: np.ndarray,
        alive: np.ndarray,
        concurrent: int,
    ) -> float:
        """Per-event twin duration: plan (or byte-repair) a deterministic
        sample of the degraded stripes, scaled back to the full count."""
        from repro.ec.stripe import StripeMeta

        spec = self.spec
        sample = live_rows[: spec.twin_stripe_cap]
        metas = []
        dead: set[int] = set()
        for row in sample.tolist():
            place = tuple(int(n) for n in placement[row])
            metas.append(StripeMeta(int(row), spec.k, spec.m, place))
            dead.update(n for n in place if not alive[n])
        dur = self.timing.exact_event_duration_s(
            metas, sorted(dead), materialize=spec.materialize
        )
        scale = len(live_rows) / len(sample)
        return dur * scale * self.timing.load_factor(concurrent, spec.scheme)

    def _check_invariants(self, spares_free, failed, in_flight, alive) -> None:
        """Conservation checks the chaos tier runs after every event."""
        spec = self.spec
        if not 0 <= spares_free <= spec.n_spares:
            raise AssertionError(f"spare count out of range: {spares_free}")
        if int(failed.min()) < 0:
            raise AssertionError("negative per-stripe failure count")
        for node in in_flight.values():
            if alive[node]:
                raise AssertionError(f"repair in flight for healthy node {node}")
        if len(in_flight) != spec.n_spares - spares_free:
            raise AssertionError(
                f"{len(in_flight)} repairs in flight but "
                f"{spec.n_spares - spares_free} spares in use"
            )
