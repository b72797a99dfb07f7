"""Split-ratio optimization policies for HMBR.

Three ways to choose the CR/IR split ratio p, strongest last:

* ``theorem1`` — the paper's closed form (§III, Theorem 1), assuming the two
  sub-repairs never share a link.
* ``volume``  — per-node volume equalization (the §II-E example arithmetic),
  accounting for shared links but assuming an ideal schedule.
* ``search``  — evaluate the *actual* planned task graph in the fluid
  simulator over a grid of p and refine around the best point.  The
  coordinator has the full bandwidth table (§IV assumption), so this is
  implementable in a real system; at p = 0 / p = 1 the plan degenerates to
  pure IR / CR, so searched HMBR never loses to either under the
  simulator's fair-sharing semantics.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Cluster
from repro.simnet.flows import Task
from repro.simnet.fluid import FluidSimulator


def search_split(
    cr_full: list[Task],
    ir_full: list[Task],
    cluster: Cluster,
    coarse_points: int = 9,
    refine_rounds: int = 2,
    refine_points: int = 5,
    events=(),
) -> tuple[float, float]:
    """Grid-and-refine minimization of simulated makespan over p in [0, 1].

    ``cr_full`` / ``ir_full`` are the two sub-plans built for the *whole*
    block.  Transfer sizes are linear in the sub-block fraction, so split p
    is the same task graph with CR sizes scaled by ``p`` and IR sizes by
    ``1 - p`` (delays unscaled): the graph is compiled once and every
    candidate only rescales its size vector — no re-planning, no rebuilt
    tasks.

    Returns ``(best_p, best_makespan)``.  T(p) is piecewise smooth but not
    guaranteed convex under fair sharing, hence grid search instead of
    golden section; total simulations = coarse + rounds * refine.
    """
    sim = FluidSimulator(cluster)
    problem = sim.compile(cr_full + ir_full)
    is_cr = np.arange(len(problem)) < len(cr_full)

    def t_of(p: float) -> float:
        scale = np.where(problem.is_delay, 1.0, np.where(is_cr, p, 1.0 - p))
        return sim.run(problem, events=events, sizes=problem.base * scale).makespan

    ps = list(np.linspace(0.0, 1.0, coarse_points))
    ts = [t_of(p) for p in ps]
    best_i = int(np.argmin(ts))
    best_p, best_t = ps[best_i], ts[best_i]
    lo = ps[max(0, best_i - 1)]
    hi = ps[min(len(ps) - 1, best_i + 1)]
    for _ in range(refine_rounds):
        grid = list(np.linspace(lo, hi, refine_points + 2))[1:-1]
        for p in grid:
            t = t_of(p)
            if t < best_t:
                best_p, best_t = p, t
        span = (hi - lo) / 4
        lo, hi = max(0.0, best_p - span), min(1.0, best_p + span)
    return float(best_p), float(best_t)
