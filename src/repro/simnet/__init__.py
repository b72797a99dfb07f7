"""Flow-level network simulation substrate.

Replaces the paper's EC2 network.  Transfers are *fluid flows* between nodes;
at any instant, flow rates are the max-min fair allocation subject to each
node's uplink/downlink capacity (and optional cross-rack caps), which
generalizes the paper's connection-count bandwidth sharing model (§III-B1):
when a node has r concurrent outgoing connections and is the bottleneck, each
gets exactly U/r, i.e. the paper's Case 2/Case 3 division.

Pipelined (chain) repairs are modeled as :class:`PipelineFlow`: one logical
flow that simultaneously occupies every hop of its path (the steady state of
slice-level pipelining) and progresses at the minimum per-hop allocation.  A
slice-accurate discrete-event validator (:mod:`repro.simnet.slicesim`) checks
this abstraction on small cases.
"""

from repro.simnet.flows import Flow, PipelineFlow, DelayTask, Task
from repro.simnet.fluid import FluidSimulator, SimulationResult
from repro.simnet.slicesim import simulate_pipeline_slices
from repro.simnet.static import StaticShareEvaluator, StaticResult
from repro.simnet.dynamic import BandwidthEvent
from repro.simnet.network import NetworkTrace, as_network, cluster_at
from repro.simnet.trace import bottleneck_report

__all__ = [
    "Flow",
    "PipelineFlow",
    "DelayTask",
    "Task",
    "FluidSimulator",
    "SimulationResult",
    "simulate_pipeline_slices",
    "StaticShareEvaluator",
    "StaticResult",
    "BandwidthEvent",
    "NetworkTrace",
    "as_network",
    "cluster_at",
    "bottleneck_report",
]
