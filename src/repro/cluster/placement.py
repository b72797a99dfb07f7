"""Stripe placement: flat random placement across all nodes.

The paper's Table I failure study assumes "stripes distributed randomly
across all nodes"; every experiment and the coordinator place that way.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Cluster
from repro.ec.stripe import Stripe, StripeLayout


def _random_stripe_nodes(
    candidates: list[int], width: int, rng: np.random.Generator
) -> list[int]:
    """Pick ``width`` distinct nodes uniformly at random."""
    if width > len(candidates):
        raise ValueError(f"stripe width {width} exceeds {len(candidates)} candidate nodes")
    idx = rng.choice(len(candidates), size=width, replace=False)
    return [candidates[i] for i in idx]


def place_stripes_random(
    cluster: Cluster,
    n_stripes: int,
    k: int,
    m: int,
    rng: np.random.Generator | int = 0,
    candidates: list[int] | None = None,
) -> StripeLayout:
    """Place ``n_stripes`` (k, m) stripes uniformly across alive nodes.

    ``candidates`` restricts placement (e.g. to exclude spare nodes reserved
    as repair targets); defaults to every alive node.
    """
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    if candidates is None:
        candidates = cluster.alive_ids()
    else:
        candidates = [i for i in candidates if cluster[i].alive]
    layout = StripeLayout()
    for sid in range(n_stripes):
        layout.add(Stripe(sid, k, m, _random_stripe_nodes(candidates, k + m, rng)))
    return layout

