"""Automatic repair-scheme selection.

A real coordinator with a bandwidth table does not need the operator to pick
CR vs IR vs HMBR per failure: it can score candidate plans in the simulator
and dispatch the fastest.  HMBR's searched split already dominates CR and IR
for a single stripe, but the selector also covers:

* single-block failures, where the star / chain / PPR baselines compete;
* rack topologies, where the rack-aware variants may or may not pay off
  (Experiment 4 shows they lose when f reaches the rack size);
* callers that want the decision trace (every candidate's predicted time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.repair.centralized import plan_centralized
from repro.repair.context import RepairContext
from repro.repair.hybrid import plan_hybrid
from repro.repair.independent import plan_independent
from repro.repair.plan import RepairPlan
from repro.repair.rackaware import plan_rack_aware_hybrid
from repro.repair.singleblock import plan_chain, plan_ppr, plan_star
from repro.simnet.fluid import FluidSimulator


@dataclass
class SchemeChoice:
    """The selector's decision, with the full candidate scoreboard."""

    scheme: str
    plan: RepairPlan
    predicted_s: float
    candidates: dict[str, float]


def _candidates(ctx: RepairContext) -> dict[str, callable]:
    """Candidate planners appropriate for the context's failure shape."""
    has_racks = len({ctx.cluster[n].rack for n in ctx.cluster.node_ids()}) > 1
    if ctx.f == 1:
        cands = {"star": plan_star, "chain": plan_chain, "ppr": plan_ppr,
                 "hmbr": plan_hybrid}
    else:
        cands = {"cr": plan_centralized, "ir": plan_independent, "hmbr": plan_hybrid}
    if has_racks:
        cands["rack-hmbr"] = plan_rack_aware_hybrid
    return cands


def choose_scheme(ctx: RepairContext) -> SchemeChoice:
    """Score every candidate plan in the simulator and return the fastest.

    The candidates depend on f and the rack structure
    (:func:`_candidates`).
    """
    sim = FluidSimulator(ctx.cluster)
    scored: dict[str, tuple[float, RepairPlan]] = {}
    for name, planner in _candidates(ctx).items():
        plan = planner(ctx)
        t = sim.run(plan.tasks).makespan
        scored[name] = (t, plan)
    best = min(scored, key=lambda nm: scored[nm][0])
    return SchemeChoice(
        scheme=best,
        plan=scored[best][1],
        predicted_s=scored[best][0],
        candidates={nm: t for nm, (t, _) in scored.items()},
    )
