"""Capacity planning: how wide can stripes go under a repair-time SLO?

Operators adopting wide stripes face the inverse of the paper's question:
given a bandwidth environment, a failure tolerance m, a worst-case f and a
repair-time budget, what is the widest (cheapest) stripe each repair scheme
supports?  This module answers it by monotone search over k against the
simulated repair time, and tabulates the resulting redundancy — i.e. how
many extra bytes of storage slow repair machinery costs you.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import build_scenario, transfer_time


@dataclass
class _WidthPlan:
    """Result of a width search for one scheme."""

    scheme: str
    max_k: int
    repair_s_at_max: float
    redundancy: float  # (k + m) / k at max_k

    @property
    def feasible(self) -> bool:
        return self.max_k > 0


def _repair_time_at_width(
    k: int,
    m: int,
    f: int,
    scheme: str,
    wld: str = "WLD-4x",
    seeds: tuple[int, ...] = (2023, 2024, 2025),
    block_size_mb: float = 64.0,
) -> float:
    """Mean simulated repair transfer time for one configuration.

    Averaged over seeded bandwidth/failure draws: each width samples a fresh
    WLD environment, so a single draw is noisy in k even though the trend is
    increasing.
    """
    times = []
    for seed in seeds:
        sc = build_scenario(k, m, f, wld=wld, seed=seed, block_size_mb=block_size_mb)
        times.append(transfer_time(sc.ctx, scheme))
    return float(sum(times) / len(times))


def _max_width_under_slo(
    slo_s: float,
    m: int,
    f: int,
    scheme: str,
    k_min: int = 2,
    k_max: int = 128,
    k_step: int = 2,
    **kwargs,
) -> _WidthPlan:
    """Largest scanned k whose mean repair time meets the SLO.

    The trend of repair time in k is increasing but individual draws jitter
    (every width re-samples its bandwidth environment), so this scans the
    ``k_min..k_max`` grid rather than bisecting, and returns the largest
    grid point satisfying the SLO.  Returns ``max_k = 0`` when even
    ``k_min`` misses it.
    """
    if slo_s <= 0:
        raise ValueError("SLO must be positive")
    if f > m:
        raise ValueError("f cannot exceed m")
    if k_step < 1:
        raise ValueError("k_step must be >= 1")
    best_k, best_t = 0, float("inf")
    ks = list(range(k_min, k_max + 1, k_step))
    if ks[-1] != k_max:
        ks.append(k_max)
    for k in ks:
        t = _repair_time_at_width(k, m, f, scheme, **kwargs)
        if t <= slo_s and k > best_k:
            best_k, best_t = k, t
    if best_k == 0:
        return _WidthPlan(scheme, 0, float("inf"), float("inf"))
    return _WidthPlan(scheme, best_k, best_t, (best_k + m) / best_k)


def slo_table(
    slo_s: float,
    m: int,
    f: int,
    schemes: tuple[str, ...] = ("cr", "ir", "hmbr"),
    **kwargs,
) -> list[dict]:
    """One row per scheme: widest stripe and redundancy under the SLO."""
    rows = []
    for scheme in schemes:
        plan = _max_width_under_slo(slo_s, m, f, scheme, **kwargs)
        rows.append(
            {
                "scheme": scheme,
                "max_k": plan.max_k,
                "redundancy_x": plan.redundancy,
                "repair_s": plan.repair_s_at_max,
            }
        )
    return rows
