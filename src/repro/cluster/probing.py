"""Bandwidth-table acquisition and estimation error.

§IV of the paper assumes "we have obtained the uplink and downlink bandwidth
of all nodes".  This module supplies that step and its failure modes:

* :func:`measure_bandwidths` — active probing: one flow at a time against a
  well-provisioned reference node, timed in the fluid simulator, exactly how
  a coordinator would measure an idle cluster;
* :func:`noisy_cluster` — a cluster clone whose bandwidths carry
  multiplicative error, for studying how sensitive HMBR's split is to a
  stale or mismeasured table (see ``experiments/sensitivity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.simnet.flows import Flow
from repro.simnet.fluid import FluidSimulator


def measure_bandwidths(
    cluster: Cluster, reference_node: int, probe_mb: float = 64.0
) -> dict[int, tuple[float, float]]:
    """Probe every alive node's uplink and downlink against a reference.

    The reference must be provisioned above every probed link (otherwise the
    probe measures the reference, not the target).  Returns
    ``node -> (uplink, downlink)`` estimates; exact in an idle cluster.
    """
    ref = cluster[reference_node]
    sim = FluidSimulator(cluster)
    out: dict[int, tuple[float, float]] = {}
    for nid in cluster.alive_ids():
        if nid == reference_node:
            continue
        up_probe = sim.run([Flow("probe-up", nid, reference_node, probe_mb)])
        down_probe = sim.run([Flow("probe-down", reference_node, nid, probe_mb)])
        up = probe_mb / up_probe.makespan
        down = probe_mb / down_probe.makespan
        if up >= ref.downlink - 1e-9 or down >= ref.uplink - 1e-9:
            raise ValueError(
                f"reference node {reference_node} saturates before node {nid}; "
                "probe with a faster reference"
            )
        out[nid] = (up, down)
    return out


def noisy_cluster(
    cluster: Cluster, rel_error: float, rng: np.random.Generator | int = 0
) -> Cluster:
    """Clone with multiplicative bandwidth noise ~ exp(N(0, rel_error)).

    ``rel_error = 0.2`` means the table is typically ~20% off — a realistic
    staleness level for once-a-minute probing on shared tenancy.
    """
    if rel_error < 0:
        raise ValueError("rel_error must be non-negative")
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    nodes = []
    for nid in cluster.node_ids():
        n = cluster[nid]
        fu, fd = np.exp(rng.normal(0.0, rel_error, size=2))
        nodes.append(
            Node(
                nid,
                uplink=n.uplink * float(fu),
                downlink=n.downlink * float(fd),
                rack=n.rack,
                alive=n.alive,
                cross_uplink=None if n.cross_uplink is None else n.cross_uplink * float(fu),
                cross_downlink=None if n.cross_downlink is None else n.cross_downlink * float(fd),
            )
        )
    out = Cluster(nodes)
    out.rack_trunks = dict(cluster.rack_trunks)
    return out
