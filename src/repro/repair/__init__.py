"""Multi-block repair planners: CR, IR, HMBR and its extensions.

This package is the paper's contribution.  Planners turn a
:class:`~repro.repair.context.RepairContext` (who failed, who survives, where
new nodes are) into a :class:`~repro.repair.plan.RepairPlan` holding both a
*timing view* (flow tasks for :mod:`repro.simnet`) and a *data view* (GF ops
for the agents of :mod:`repro.system`, which repair real bytes and verify them).
:mod:`repro.repair.planner` composes them into whole repair rounds:
:data:`SCHEMES` is the scheme registry and :func:`plan_round` the single
plan path every coordinator route calls.
"""

from repro.repair.context import RepairContext
from repro.repair.plan import (
    CombineOp,
    ConcatOp,
    RepairPlan,
    SliceOp,
    TransferOp,
    reweighted,
)
from repro.repair.model import (
    repair_model,
    RepairModel,
    optimal_split,
    volume_split,
    t_cr,
    t_ir,
    t_hybrid,
)
from repro.repair.centralized import plan_centralized
from repro.repair.independent import plan_independent
from repro.repair.hybrid import plan_hybrid
from repro.repair.mlf import plan_mlf
from repro.repair.rackaware import (
    plan_rack_aware_centralized,
    plan_tree_independent,
    plan_rack_aware_hybrid,
)
from repro.repair.multinode import CenterScheduler, MultiNodeRepairJob, plan_multi_node
from repro.repair.batch import BatchRepairEngine, PlanCache, StripeBatchItem
from repro.repair.validate import validate_plan, PlanValidationError
from repro.repair.selector import choose_scheme, SchemeChoice
from repro.repair.singleblock import plan_star, plan_chain, plan_ppr, SINGLE_BLOCK_SCHEMES
from repro.repair.planner import ADAPTIVE_SCHEMES, SCHEMES, RoundPlan, plan_round

__all__ = [
    "RepairContext",
    "RepairPlan",
    "SliceOp",
    "TransferOp",
    "CombineOp",
    "ConcatOp",
    "repair_model",
    "RepairModel",
    "optimal_split",
    "volume_split",
    "t_cr",
    "t_ir",
    "t_hybrid",
    "plan_centralized",
    "plan_independent",
    "plan_hybrid",
    "plan_mlf",
    "plan_rack_aware_centralized",
    "plan_tree_independent",
    "plan_rack_aware_hybrid",
    "CenterScheduler",
    "MultiNodeRepairJob",
    "plan_multi_node",
    "BatchRepairEngine",
    "PlanCache",
    "StripeBatchItem",
    "validate_plan",
    "PlanValidationError",
    "choose_scheme",
    "SchemeChoice",
    "plan_star",
    "plan_chain",
    "plan_ppr",
    "SINGLE_BLOCK_SCHEMES",
    "reweighted",
    "SCHEMES",
    "ADAPTIVE_SCHEMES",
    "RoundPlan",
    "plan_round",
]
