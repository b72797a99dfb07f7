"""Analysis studies from the paper: Table I and the Table II breakdown."""

from repro.analysis.failure_sim import (
    failure_ratio_exact,
    failure_ratio_montecarlo,
    simulate_failure_ratio_placement,
    table1_grid,
)
from repro.analysis.breakdown import (
    CostModel,
    RepairBreakdown,
    breakdown_for_plan,
    breakdown_from_trace,
)
from repro.analysis.reliability import (
    StripeReliability,
    mttdl_markov,
    mttdl_closed_form_m1,
    scheme_mttdl_comparison,
)
from repro.analysis.traffic import TrafficProfile, traffic_profile, compare_load_balance
from repro.analysis.whatif import slo_table

__all__ = [
    "failure_ratio_exact",
    "failure_ratio_montecarlo",
    "simulate_failure_ratio_placement",
    "table1_grid",
    "CostModel",
    "RepairBreakdown",
    "breakdown_for_plan",
    "breakdown_from_trace",
    "StripeReliability",
    "mttdl_markov",
    "mttdl_closed_form_m1",
    "scheme_mttdl_comparison",
    "TrafficProfile",
    "traffic_profile",
    "compare_load_balance",
    "slo_table",
]
