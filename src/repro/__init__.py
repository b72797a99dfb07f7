"""HMBR: hybrid multi-block repair for wide-stripe erasure-coded storage.

A complete, self-contained reproduction of *"Boosting Multi-Block Repair in
Cloud Storage Systems with Wide-Stripe Erasure Coding"* (Yu et al., IPDPS
2023), including every substrate the paper depends on:

* :mod:`repro.gf` — GF(2^w) arithmetic (the ISA-L stand-in),
* :mod:`repro.ec` — systematic Reed-Solomon codes, stripes, sub-blocks,
* :mod:`repro.cluster` — nodes, racks, bandwidth workloads, failures,
* :mod:`repro.simnet` — fluid flow-level network simulation,
* :mod:`repro.repair` — CR, IR, HMBR, rack-aware HMBR, multi-node scheduling,
* :mod:`repro.system` — the coordinator/agent storage system (OpenEC/HDFS
  stand-in),
* :mod:`repro.faults` — fault schedules, injection, and degraded repair,
* :mod:`repro.sched` — concurrent repair jobs with admission control and
  weighted bandwidth sharing,
* :mod:`repro.obs` — opt-in spans, metrics, and repair-timeline export,
* :mod:`repro.workload` — seeded client load generation and the online
  serving plane (degraded reads under live repair traffic),
* :mod:`repro.reliability` — the macro-scale durability simulator (MTTDL,
  P(loss) curves, nines) driven by the repair engines' own makespans,
* :mod:`repro.analysis` / :mod:`repro.experiments` — every table and figure
  of the paper's evaluation.

Quickstart::

    from repro import build_scenario, plan_for, FluidSimulator

    sc = build_scenario(k=64, m=8, f=8, wld="WLD-8x")
    plan = plan_for(sc.ctx, "hmbr")
    t = FluidSimulator(sc.cluster).run(plan.tasks).makespan

The documented import style is ``from repro import Coordinator,
RepairRequest, ...`` — every supported name is re-exported here or from
its subpackage's ``__init__`` and listed in ``__all__``;
``tools/check_api_surface.py`` pins the surface against
``tests/golden/api_surface.json``.
"""

__version__ = "1.1.0"

from repro.gf import GF, gf8
from repro.ec import RSCode, Stripe
from repro.cluster import Cluster, Node, make_wld, FailureInjector, PowerOutage
from repro.simnet import FluidSimulator, Flow, PipelineFlow
from repro.repair import (
    RepairContext,
    RepairPlan,
    plan_centralized,
    plan_independent,
    plan_hybrid,
    plan_rack_aware_hybrid,
    plan_multi_node,
    repair_model,
)
from repro.system import (
    Coordinator,
    PlanExecutor,
    RepairRequest,
    RepairResult,
    Workspace,
)
from repro.sched import AdmissionPolicy, RepairJob, RepairScheduler, SchedulerReport
from repro.faults import FaultInjector, FaultSchedule
from repro.repair import BatchRepairEngine, PlanCache
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.simnet import NetworkTrace, as_network
from repro.adaptive import AdaptiveEngine, AdaptiveReport, RangeJournal
from repro.workload import ServeRequest, ServeResult, ServingPlane, WorkloadSpec
from repro.reliability import (
    ReliabilityReport,
    ReliabilitySimulator,
    ReliabilitySpec,
)
from repro.experiments import build_scenario, plan_for, transfer_time

__all__ = [
    "__version__",
    "GF",
    "gf8",
    "RSCode",
    "Stripe",
    "Cluster",
    "Node",
    "make_wld",
    "FailureInjector",
    "PowerOutage",
    "FluidSimulator",
    "Flow",
    "PipelineFlow",
    "RepairContext",
    "RepairPlan",
    "plan_centralized",
    "plan_independent",
    "plan_hybrid",
    "plan_rack_aware_hybrid",
    "plan_multi_node",
    "repair_model",
    "PlanExecutor",
    "Workspace",
    "BatchRepairEngine",
    "PlanCache",
    "Coordinator",
    "RepairRequest",
    "RepairResult",
    "AdmissionPolicy",
    "RepairJob",
    "RepairScheduler",
    "SchedulerReport",
    "FaultInjector",
    "FaultSchedule",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "NetworkTrace",
    "as_network",
    "AdaptiveEngine",
    "AdaptiveReport",
    "RangeJournal",
    "ServeRequest",
    "ServeResult",
    "ServingPlane",
    "WorkloadSpec",
    "ReliabilityReport",
    "ReliabilitySimulator",
    "ReliabilitySpec",
    "build_scenario",
    "plan_for",
    "transfer_time",
]
