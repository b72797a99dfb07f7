"""Mini erasure-coded storage system (the OpenEC/HDFS substrate).

An in-process reproduction of the paper's prototype architecture (Figure 7):
a centralized **coordinator** on the metadata path (stripe/block metadata,
heartbeat failure detection, repair-solution generation) and one **agent**
per storage node (in-memory block store, GF compute, data exchange over a
byte-accounting bus).  Repair solutions are the same
:class:`~repro.repair.plan.RepairPlan` objects the planners emit; the
coordinator breaks them into per-agent commands exactly as OpenEC does.
"""

from repro.system.blockstore import BlockStore
from repro.system.bus import DataBus
from repro.system.agent import Agent
from repro.system.executor import ExecutionReport, PlanExecutor, Workspace
from repro.system.heartbeat import HeartbeatMonitor
from repro.system.request import RepairRequest, RepairResult, RepairTiming
from repro.system.coordinator import Coordinator, WriteReceipt

__all__ = [
    "BlockStore",
    "DataBus",
    "Agent",
    "HeartbeatMonitor",
    "Coordinator",
    "ExecutionReport",
    "PlanExecutor",
    "RepairRequest",
    "RepairResult",
    "RepairTiming",
    "Workspace",
    "WriteReceipt",
]
