"""Extension experiment (paper §VII future work): dynamic bandwidth workloads.

Mid-repair, a set of survivor nodes loses bandwidth (a co-located workload
spins up — the scenario the paper names for future work).  The churn is
described once as a :class:`~repro.simnet.NetworkTrace` and every arm is
simulated under that same trace.  We compare:

* CR / IR — static plans, simulated under the trace;
* HMBR (stale) — split searched against the pre-change snapshot;
* HMBR (aware) — split searched against the predicted event schedule;
* HMBR (adaptive) — starts from the stale plan and re-plans the remaining
  volume at event boundaries via :class:`~repro.adaptive.AdaptiveEngine`,
  never re-sending already-moved ranges.

Expected shape: the stale split misjudges the CR/IR balance and loses part
of its advantage; the dynamics-aware split recovers it with foresight, and
the adaptive engine recovers most of it with hindsight only.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive import AdaptiveEngine, AdaptiveEntry
from repro.experiments.common import build_scenario, format_table, plan_for
from repro.repair.hybrid import plan_hybrid
from repro.simnet import NetworkTrace
from repro.simnet.fluid import FluidSimulator

DEFAULT_CASES = [(16, 8, 4), (32, 8, 8)]


def run_one(
    k: int,
    m: int,
    f: int,
    wld: str = "WLD-2x",
    seed: int = 2023,
    change_time_s: float = 1.0,
    degrade_factor: float = 8.0,
    degraded_fraction: float = 0.5,
    block_size_mb: float = 64.0,
) -> dict:
    """One (k, m, f) cell: all arms simulated under the same churn trace."""
    sc = build_scenario(k, m, f, wld=wld, seed=seed, block_size_mb=block_size_mb)
    ctx = sc.ctx
    survivors = ctx.survivor_nodes()
    n_degraded = max(1, int(round(degraded_fraction * len(survivors))))
    network = NetworkTrace.degrade(
        survivors[:n_degraded], at_time=change_time_s, factor=degrade_factor
    )
    events = network.events_for(ctx.cluster)
    sim = FluidSimulator(ctx.cluster)
    t_cr = sim.run(plan_for(ctx, "cr").tasks, events=events).makespan
    t_ir = sim.run(plan_for(ctx, "ir").tasks, events=events).makespan
    stale = plan_hybrid(ctx)
    aware = plan_hybrid(ctx, events=events)
    t_stale = sim.run(stale.tasks, events=events).makespan
    t_aware = sim.run(aware.tasks, events=events).makespan
    engine = AdaptiveEngine(ctx.cluster, events=events)
    adaptive = engine.run([AdaptiveEntry(key="s0", ctx=ctx, scheme="hmbr", plan=stale)])
    t_adapt = adaptive.makespan_s
    return {
        "(k,m,f)": f"({k},{m},{f})",
        "cr": t_cr,
        "ir": t_ir,
        "hmbr_stale": t_stale,
        "hmbr_aware": t_aware,
        "hmbr_adapt": t_adapt,
        "stale_p": stale.meta["p0"],
        "aware_p": aware.meta["p0"],
        "replans": adaptive.replans,
        "aware_gain_%": 100.0 * (1 - t_aware / t_stale) if t_stale else 0.0,
        "adapt_gain_%": 100.0 * (1 - t_adapt / t_stale) if t_stale else 0.0,
    }


def run(cases=None, seeds=(2023, 2024, 2025), **kwargs) -> list[dict]:
    """Average :func:`run_one` over ``seeds`` for each (k, m, f) case."""
    cases = cases or DEFAULT_CASES
    rows = []
    for k, m, f in cases:
        per_seed = [run_one(k, m, f, seed=s, **kwargs) for s in seeds]
        row = dict(per_seed[0])
        for key in ("cr", "ir", "hmbr_stale", "hmbr_aware", "hmbr_adapt",
                    "aware_gain_%", "adapt_gain_%"):
            row[key] = float(np.mean([r[key] for r in per_seed]))
        rows.append(row)
    return rows


def main() -> None:
    rows = run()
    print("Extension (§VII) — repair time [s] when survivor bandwidth collapses mid-repair")
    print(format_table(rows, floatfmt=".2f"))
    print("\nhmbr_aware searches its split against the predicted bandwidth")
    print("trajectory; hmbr_stale uses the pre-change snapshot; hmbr_adapt")
    print("re-plans the remaining volume when observed rates drift.")


if __name__ == "__main__":
    main()
