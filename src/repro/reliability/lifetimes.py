"""Component lifetime models for the durability simulator.

Disk/node lifetimes follow a Weibull distribution (the PR-SIM tradition:
shape > 1 models wear-out, shape = 1 degenerates to the exponential
memoryless model the Markov MTTDL math assumes).  The key engineering
constraint is **common random numbers**: comparing CR / IR / HMBR on the
same seed must expose every scheme to the *identical* failure history, so
the only difference between runs is how fast repairs close the window of
vulnerability.  :class:`ComponentLifetimes` therefore gives every component
its own independent substream (via :class:`numpy.random.SeedSequence`
spawning, which is stable across processes and platforms): the i-th
lifetime drawn for component j is a pure function of ``(seed, j, i)``,
regardless of *when* the simulator asks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Weibull:
    """Weibull lifetime model parameterized by shape and mean (MTTF).

    Parameterizing by the mean rather than the scale keeps specs readable
    ("10-year MTTF, shape 1.12") and makes the shape a pure wear-out knob:
    changing it never changes the expected lifetime.  ``shape == 1`` is the
    exponential distribution exactly.
    """

    shape: float
    mttf_hours: float

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ValueError(f"Weibull shape must be > 0, got {self.shape}")
        if self.mttf_hours <= 0:
            raise ValueError(f"MTTF must be > 0, got {self.mttf_hours}")

    @property
    def scale_hours(self) -> float:
        """The Weibull scale λ with mean ``mttf_hours``: λ = MTTF / Γ(1+1/k)."""
        return self.mttf_hours / math.gamma(1.0 + 1.0 / self.shape)

    def mean_hours(self) -> float:
        """Closed-form mean (== ``mttf_hours`` by construction)."""
        return self.mttf_hours

    def var_hours2(self) -> float:
        """Closed-form variance: λ²·(Γ(1+2/k) − Γ(1+1/k)²)."""
        lam = self.scale_hours
        k = self.shape
        return lam * lam * (
            math.gamma(1.0 + 2.0 / k) - math.gamma(1.0 + 1.0 / k) ** 2
        )

    def sample(self, rng: np.random.Generator, size=None):
        """Draw lifetimes in hours (float scalar when ``size`` is None)."""
        draw = self.scale_hours * rng.weibull(self.shape, size=size)
        return float(draw) if size is None else draw


class ComponentLifetimes:
    """Per-component independent lifetime substreams.

    Every component gets its own :class:`numpy.random.Generator` spawned
    from one seed, so lifetime draws for different components never share a
    stream: the i-th draw for component j is a deterministic function of
    ``(seed, j, i)``.  This is what makes cross-scheme comparisons use
    common random numbers — a scheme that repairs faster revives a node
    earlier, but the node's *next* lifetime is the same draw either way.
    """

    def __init__(self, seed, n_components: int, model: Weibull):
        if n_components <= 0:
            raise ValueError(f"need >= 1 component, got {n_components}")
        ss = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self.model = model
        self._rngs = [np.random.default_rng(s) for s in ss.spawn(n_components)]
        #: number of lifetimes drawn per component (the substream position).
        self.draws = [0] * n_components

    def __len__(self) -> int:
        return len(self._rngs)

    def next_lifetime_hours(self, component: int) -> float:
        """The component's next lifetime draw (advances its substream)."""
        self.draws[component] += 1
        return self.model.sample(self._rngs[component])
