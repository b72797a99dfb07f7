"""Cluster substrate: nodes, racks, bandwidth workloads, placement, failures.

Replaces the paper's EC2 testbed (1 coordinator + 88 ``m3.large`` data nodes
with ``tc``-shaped bandwidths) with a declarative cluster model consumed by
the network simulator (:mod:`repro.simnet`) and the repair planners
(:mod:`repro.repair`).
"""

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.cluster.bandwidth import BandwidthDataset, make_wld, WLD_PRESETS
from repro.cluster.placement import place_stripes_random
from repro.cluster.failure import FailureInjector, PowerOutage
from repro.cluster.probing import measure_bandwidths, noisy_cluster

__all__ = [
    "Node",
    "Cluster",
    "BandwidthDataset",
    "make_wld",
    "WLD_PRESETS",
    "place_stripes_random",
    "FailureInjector",
    "PowerOutage",
    "measure_bandwidths",
    "noisy_cluster",
]
