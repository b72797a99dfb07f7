"""Time-varying bandwidth traces (mean-reverting OU process).

The paper's future work asks for "real-world network bandwidth workloads".
Shared-tenancy link rates are well modeled as mean-reverting noise around a
base rate; we generate Ornstein-Uhlenbeck sample paths per node and lower
them onto the simulator's :class:`~repro.simnet.dynamic.BandwidthEvent`
timeline, so any repair can be evaluated under realistic churn.

The recurrence is evaluated by :func:`ou_paths`, which advances *all*
requested paths one step at a time with vectorized NumPy element-wise
arithmetic.  Element-wise IEEE operations are bit-identical to the scalar
loop they replace, so a batched trace equals the old one-path-at-a-time
generation bit for bit on the same seed (pinned by
``tests/test_cluster_timeseries.py``) while the Python-level loop count
drops from ``n_paths * n_steps`` to ``n_steps``.

The public entry point for trace generation is
:meth:`repro.simnet.network.NetworkTrace.ou`, which lowers its paths
through :func:`ou_trace_events`.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Cluster
from repro.simnet.dynamic import BandwidthEvent


def ou_paths(
    bases: np.ndarray,
    duration_s: float,
    step_s: float,
    sigmas: np.ndarray,
    theta: float,
    rng: np.random.Generator,
    floor_fraction: float = 0.1,
) -> np.ndarray:
    """A batch of OU sample paths, one row per entry of ``bases``.

    Noise is drawn in one ``(n_paths, n_steps)`` block — NumPy fills the
    array from the generator's stream in row-major order, so the draws per
    path are exactly the draws sequential one-path calls would have
    consumed.  The recurrence then advances all rows together; per element
    the arithmetic (order of operations, operand values) is identical to
    the scalar loop, hence bit-for-bit equal results.
    """
    if duration_s <= 0 or step_s <= 0:
        raise ValueError("duration and step must be positive")
    bases = np.atleast_1d(np.asarray(bases, dtype=float))
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), bases.shape)
    n = int(np.ceil(duration_s / step_s)) + 1
    x = np.empty((bases.shape[0], n))
    x[:, 0] = bases
    sq = np.sqrt(step_s)
    noise = rng.normal(0.0, 1.0, size=(bases.shape[0], n - 1))
    for i in range(1, n):
        drift = theta * (bases - x[:, i - 1]) * step_s
        x[:, i] = x[:, i - 1] + drift + sigmas * sq * noise[:, i - 1]
    return np.maximum(x, floor_fraction * bases[:, None])


def ou_path(
    base: float,
    duration_s: float,
    step_s: float,
    sigma: float,
    theta: float,
    rng: np.random.Generator,
    floor_fraction: float = 0.1,
) -> np.ndarray:
    """One OU sample path around ``base``: x' = theta (base - x) + sigma dW.

    ``sigma`` is in the units of ``base`` per sqrt(second); the path is
    floored at ``floor_fraction * base`` (links never drop to zero).
    Delegates to the vectorized :func:`ou_paths` (one row), which is
    bit-for-bit equal to the historical Python-loop implementation.
    """
    return ou_paths(
        np.array([float(base)]),
        duration_s,
        step_s,
        np.array([float(sigma)]),
        theta,
        rng,
        floor_fraction,
    )[0]


def ou_trace_events(
    cluster: Cluster,
    duration_s: float,
    step_s: float = 1.0,
    rel_sigma: float = 0.15,
    theta: float = 0.5,
    rng: np.random.Generator | int = 0,
    nodes: list[int] | None = None,
) -> list[BandwidthEvent]:
    """OU bandwidth churn for (a subset of) the cluster as simulator events.

    ``rel_sigma`` scales the volatility relative to each node's base rate.
    Events are emitted at every step for every selected node; the simulator
    merges them efficiently (one rate re-solve per step).  All paths are
    generated in one :func:`ou_paths` batch (uplink then downlink per node,
    in node order — the historical draw order).
    """
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    nodes = list(nodes) if nodes is not None else cluster.alive_ids()
    n_steps = int(np.ceil(duration_s / step_s))
    if not nodes:
        return []
    bases = np.array(
        [r for nid in nodes for r in (cluster[nid].uplink, cluster[nid].downlink)]
    )
    paths = ou_paths(bases, duration_s, step_s, rel_sigma * bases, theta, rng)
    events: list[BandwidthEvent] = []
    for i in range(1, n_steps + 1):
        for j, nid in enumerate(nodes):
            events.append(
                BandwidthEvent(
                    time=i * step_s,
                    node=nid,
                    uplink=float(paths[2 * j, i]),
                    downlink=float(paths[2 * j + 1, i]),
                )
            )
    return events
