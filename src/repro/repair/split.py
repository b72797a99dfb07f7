"""Split-ratio optimization policies for HMBR.

Three ways to choose one stripe's CR/IR split ratio p, strongest last:

* ``theorem1`` — the paper's closed form (§III, Theorem 1), assuming the two
  sub-repairs never share a link.
* ``volume``  — per-node volume equalization (the §II-E example arithmetic),
  accounting for shared links but assuming an ideal schedule.
* ``search``  — evaluate the *actual* planned task graph in the fluid
  simulator over a grid of p and refine around the best point.  The
  coordinator has the full bandwidth table (§IV assumption), so this is
  implementable in a real system; at p = 0 / p = 1 the plan is pure IR /
  CR (one half, built alone), so searched HMBR never loses to either
  under the simulator's fair-sharing semantics.

A round of several stripes (§IV-C) gets one split *per stripe*.  Volumes
are affine in each stripe's split, so the splits x* minimising the round's
volume bound max_r V_r(x) / C_r solve a small LP (:func:`min_max`).  Alone
it lost to the paper's common-split search on 12 of 62 probed rounds (up
to +28%), so one fluid run at x* is certified against L, the least volume
bound a *common* split reaches: every common split's makespan is at least
its bound, so a run at or below L beats the whole grid unrun.  Otherwise
the grid runs and the better of the two is kept (the grid's on a tie).  Of
82 drawn rounds (RS(6,3) to RS(32,8), 2–63 stripes, WLD-2x/4x/8x) 69 were
certified and none planned worse (median makespan x0.85).  Capacity events
void the bound, so a round with ``events`` keeps the grid.  The kept run
times the round: its plans move the same volumes, less the zero-size halves.
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
    stripe_of=None,
) -> tuple:
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

    ``stripe_of`` (one stripe index per task of ``cr_full + ir_full``)
    plans a round: the result is ``(splits, run)`` with one split per
    stripe index, from the certified volume LP (module docstring), or the
    grid's common p for every stripe, and the run that chose them.
    """
    sim = FluidSimulator(cluster)
    problem = sim.compile(cr_full + ir_full)
    is_cr = np.arange(len(problem)) < len(cr_full)

    def run_at(p):
        scale = np.where(problem.is_delay, 1.0, np.where(is_cr, p, 1.0 - p))
        return sim.run(problem, events=events, sizes=problem.base * scale)

    x = run_x = None
    if stripe_of is not None and not events:
        stripe_of = np.asarray(stripe_of)
        c, a = _volume_rows(problem, is_cr, stripe_of)
        x = min_max(c, a)[0]
        run_x = run_at(x[stripe_of])
        if run_x.makespan <= min_max(c, a.sum(axis=1, keepdims=True))[1]:  # <= L
            return x, run_x

    ps = list(np.linspace(0.0, 1.0, coarse_points))
    best_i, best = min(enumerate(map(run_at, ps)), key=lambda r: r[1].makespan)
    best_p = ps[best_i]
    lo = ps[max(0, best_i - 1)]
    hi = ps[min(len(ps) - 1, best_i + 1)]
    for _ in range(refine_rounds):
        grid = list(np.linspace(lo, hi, refine_points + 2))[1:-1]
        for p in grid:
            run = run_at(p)
            if run.makespan < best.makespan:
                best_p, best = p, run
        span = (hi - lo) / 4
        lo, hi = max(0.0, best_p - span), min(1.0, best_p + span)
    if stripe_of is None:
        return float(best_p), float(best.makespan)
    if run_x is not None and run_x.makespan < best.makespan:
        return x, run_x
    return np.full(max(stripe_of) + 1, float(best_p)), best


def _volume_rows(problem, is_cr, stripe_of):
    """``(c, a)``: resource r's volume at per-stripe splits x, over its
    capacity, is ``c[r] + a[r] @ x`` (CR tasks move ``p`` of their base MB
    and IR tasks ``1 - p``; a task crossing a resource twice counts twice)."""
    inc = problem.incidence
    task, res = inc.entry_flow, inc.entry_res
    mb, cr = problem.base[task], is_cr[task]
    n_res, n_stripes = len(problem.caps), int(stripe_of.max()) + 1
    a = np.bincount(
        res * n_stripes + stripe_of[task], np.where(cr, mb, -mb), n_res * n_stripes
    ).reshape(n_res, n_stripes)
    c = np.bincount(res, np.where(cr, 0.0, mb), n_res)
    return c / problem.caps, a / problem.caps[:, None]


def min_max(c, a):
    """``(x, T)``: the x in [0, 1]^n minimising T = max_r c[r] + a[r] @ x.

    A bounded-variable primal simplex on a dense tableau over
    ``a @ x - T + s = -c`` with slacks s >= 0, started at x = 0 with T basic
    in the largest row.  Dantzig's rule picks the entering column, and
    Bland's after a degenerate step until the objective moves again, so
    degenerate rounds (identical stripes) terminate; the result is a pure
    function of the inputs.  Rows that bind nowhere in the box are dropped.
    """
    tol = 1e-9
    c, a = np.asarray(c, dtype=float), np.asarray(a, dtype=float)
    keep = c + np.maximum(a, 0.0).sum(axis=1) >= (c + np.minimum(a, 0.0).sum(axis=1)).max()
    c, a = c[keep], a[keep]
    rows, n = a.shape
    # columns: x in [0, 1], T free, one slack in [0, inf) per row
    tab = np.hstack([a, -np.ones((rows, 1)), np.eye(rows)])
    lower = np.r_[np.zeros(n), -np.inf, np.zeros(rows)]
    upper = np.r_[np.ones(n), np.full(rows + 1, np.inf)]
    cost = np.r_[np.zeros(n), 1.0, np.zeros(rows)]  # reduced costs
    basis, value = np.arange(n + 1, n + 1 + rows), -c  # the slacks at x = 0, T = 0
    at_upper = np.zeros(len(cost), dtype=bool)

    def pivot(i, j, delta, to_upper):
        """Move nonbasic j by ``delta`` into row i, whose variable leaves."""
        col = tab[:, j].copy()
        value[:] -= delta * col
        entering = (upper[j] if at_upper[j] else max(lower[j], 0.0)) + delta
        at_upper[j], at_upper[basis[i]] = False, to_upper
        row = tab[i] / col[i]
        col[i] = 0.0
        tab[:] -= np.outer(col, row)
        tab[i] = row
        cost[:] -= cost[j] * row
        basis[i], value[i] = j, entering

    top = int(np.argmax(c))
    pivot(top, n, c[top], False)  # T enters: every slack is feasible now
    bland = False
    for _ in range(50 * (n + rows)):
        nonbasic = np.ones(len(cost), dtype=bool)
        nonbasic[basis] = False
        gain = np.where(nonbasic, np.where(at_upper, cost, -cost), 0.0)
        ready = np.flatnonzero(gain > tol)
        if not len(ready):
            break
        j = int(ready[0] if bland else ready[np.argmax(gain[ready])])
        sign = -1.0 if at_upper[j] else 1.0
        rate = -sign * tab[:, j]  # of the basic values, per unit step
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(rate < -tol, (value - lower[basis]) / -rate,
                            np.where(rate > tol, (upper[basis] - value) / rate, np.inf))
        room = np.maximum(room, 0.0)
        step = room.min()
        if upper[j] - lower[j] <= step:  # x_j crosses the box first
            value += rate * (upper[j] - lower[j])
            at_upper[j] = not at_upper[j]
            bland = False
            continue
        bland = step <= tol
        ties = np.flatnonzero(room <= step + tol)
        i = int(ties[np.argmin(basis[ties])])
        pivot(i, j, sign * step, rate[i] > 0)
    x = at_upper[:n].astype(float)
    x[basis[basis < n]] = np.clip(value[basis < n], 0.0, 1.0)
    return x, float((c + a @ x).max())
