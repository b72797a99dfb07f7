"""Bandwidth workload datasets (WLD-2x / WLD-4x / WLD-8x).

The paper evaluates under three synthetic bandwidth datasets drawn from a
normal distribution, differing in the *gap* between the fastest and slowest
node (2x, 4x, 8x).  We regenerate them deterministically from seeds and also
provide the uniform and zipf families named in the paper's future work.

Calibration: the fastest node is pinned at 200 MB/s, matching the effective
throughput of the paper's EC2 ``m3.large`` instances (their Table II numbers
back out to a ~200 MB/s fastest node and a ~25 MB/s slowest node at 8x); the
slowest node is ``200 / gap``.  Samples are affinely rescaled after truncation
so the configured gap is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Fastest-node bandwidth (MB/s) shared by all presets.
BASE_MAX_BANDWIDTH = 200.0

#: The paper's three datasets: name -> max/min gap.
WLD_PRESETS = {"WLD-2x": 2.0, "WLD-4x": 4.0, "WLD-8x": 8.0}


@dataclass
class BandwidthDataset:
    """Per-node uplink/downlink bandwidths plus provenance metadata."""

    name: str
    uplinks: np.ndarray
    downlinks: np.ndarray
    gap: float
    distribution: str
    seed: int

    def __post_init__(self) -> None:
        self.uplinks = np.asarray(self.uplinks, dtype=float)
        self.downlinks = np.asarray(self.downlinks, dtype=float)
        if self.uplinks.shape != self.downlinks.shape:
            raise ValueError("uplink/downlink vectors differ in shape")
        if np.any(self.uplinks <= 0) or np.any(self.downlinks <= 0):
            raise ValueError("bandwidths must be positive")

    def __len__(self) -> int:
        return len(self.uplinks)

    @property
    def measured_gap(self) -> float:
        hi = max(self.uplinks.max(), self.downlinks.max())
        lo = min(self.uplinks.min(), self.downlinks.min())
        return hi / lo


def _sample(dist: str, n: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples in [lo, hi] from the requested family, exact endpoints."""
    if n == 1:
        return np.array([(lo + hi) / 2.0])
    if dist == "normal":
        mean, sd = (lo + hi) / 2.0, (hi - lo) / 6.0
        raw = rng.normal(mean, sd, size=n)
        raw = np.clip(raw, lo, hi)
    elif dist == "uniform":
        raw = rng.uniform(lo, hi, size=n)
    elif dist == "zipf":
        # bandwidth proportional to 1/rank^s, shuffled; heavy skew toward lo.
        ranks = np.arange(1, n + 1, dtype=float)
        raw = 1.0 / ranks**0.8
        rng.shuffle(raw)
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    # Affine rescale so min -> lo and max -> hi exactly (gap is exact).
    rmin, rmax = raw.min(), raw.max()
    if rmax == rmin:
        return np.full(n, (lo + hi) / 2.0)
    return lo + (raw - rmin) * (hi - lo) / (rmax - rmin)


def make_wld(
    n: int,
    gap: float | str,
    distribution: str = "normal",
    seed: int = 2023,
    base_max: float = BASE_MAX_BANDWIDTH,
    symmetric: bool = False,
) -> BandwidthDataset:
    """Generate a WLD-style dataset for ``n`` nodes.

    Parameters
    ----------
    gap : numeric max/min ratio, or a preset name like ``"WLD-8x"``.
    distribution : ``"normal"`` (paper default), ``"uniform"`` or ``"zipf"``.
    symmetric : if True, downlink == uplink per node; otherwise drawn
        independently (EC2 links are full duplex).
    """
    if isinstance(gap, str):
        name = gap
        if gap not in WLD_PRESETS:
            raise KeyError(f"unknown preset {gap!r}; presets: {sorted(WLD_PRESETS)}")
        gap_value = WLD_PRESETS[gap]
    else:
        gap_value = float(gap)
        name = f"WLD-{gap_value:g}x"
    if gap_value < 1.0:
        raise ValueError("gap must be >= 1")
    lo, hi = base_max / gap_value, base_max
    rng = np.random.default_rng(seed)
    up = _sample(distribution, n, lo, hi, rng)
    down = up.copy() if symmetric else _sample(distribution, n, lo, hi, rng)
    return BandwidthDataset(name, up, down, gap_value, distribution, seed)
