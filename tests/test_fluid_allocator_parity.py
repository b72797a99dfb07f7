"""Parity between the dict reference allocator (``tests/fluid_reference.py``)
and the library's array allocator, plus a seeded topology sweep pinning the
fluid simulator against the §III-B1 static-share model on real repair plans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repair.centralized import plan_centralized
from repro.repair.hybrid import plan_hybrid
from repro.repair.independent import plan_independent
from repro.simnet.fluid import FluidSimulator
from repro.simnet.static import StaticShareEvaluator
from tests.conftest import make_repair_ctx
from tests.fluid_reference import ReferenceFluidSimulator, _Resource, array_rates
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout


@st.composite
def allocation_instance(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n_res = draw(st.integers(min_value=1, max_value=12))
    n_flows = draw(st.integers(min_value=1, max_value=15))
    res_keys = [f"r{i}" for i in range(n_res)]
    caps = {r: float(rng.uniform(5, 200)) for r in res_keys}
    flows = {}
    for i in range(n_flows):
        k = int(rng.integers(1, min(n_res, 4) + 1))
        picks = rng.choice(n_res, size=k, replace=True)  # multiplicity allowed
        flows[f"f{i}"] = [res_keys[j] for j in picks]
    return res_keys, caps, flows


@settings(max_examples=50, deadline=None)
@given(allocation_instance())
def test_vectorized_matches_reference(instance):
    res_keys, caps, flows = instance
    resources = {r: _Resource(caps[r]) for r in res_keys}
    reference = ReferenceFluidSimulator._allocate(dict(flows), resources)
    vec = array_rates(res_keys, caps, flows)
    for tid in flows:
        assert vec[tid] == pytest.approx(reference[tid], rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(allocation_instance())
def test_allocation_is_feasible_and_maxmin(instance):
    """No resource over-subscribed; every flow is pinned by a saturated one."""
    res_keys, caps, flows = instance
    vec = array_rates(res_keys, caps, flows)

    usage = {r: 0.0 for r in res_keys}
    for tid in flows:
        for r in flows[tid]:
            usage[r] += vec[tid]
    for r in res_keys:
        assert usage[r] <= caps[r] * (1 + 1e-9)
    # max-min: each flow touches at least one (nearly) saturated resource
    for tid in flows:
        saturated = any(usage[r] >= caps[r] * (1 - 1e-6) for r in flows[tid])
        assert saturated, tid


# --------------------------------------------------------------------- #
# weighted parity: random weights, multiplicities, and starved flows
# --------------------------------------------------------------------- #
@st.composite
def weighted_allocation_instance(draw):
    """Like :func:`allocation_instance`, plus per-flow weights and a chance
    of zero-capacity resources (flows crossing one are starved to rate 0)."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n_res = draw(st.integers(min_value=1, max_value=12))
    n_flows = draw(st.integers(min_value=1, max_value=15))
    res_keys = [f"r{i}" for i in range(n_res)]
    caps = {
        r: 0.0 if rng.random() < 0.15 else float(rng.uniform(5, 200))
        for r in res_keys
    }
    flows = {}
    for i in range(n_flows):
        k = int(rng.integers(1, min(n_res, 4) + 1))
        picks = rng.choice(n_res, size=k, replace=True)  # multiplicity allowed
        flows[f"f{i}"] = [res_keys[j] for j in picks]
    weights = {f: float(rng.uniform(0.1, 8.0)) for f in flows}
    return res_keys, caps, flows, weights


@settings(max_examples=50, deadline=None)
@given(weighted_allocation_instance())
def test_vectorized_matches_reference_weighted(instance):
    """The vectorized allocator must reproduce weighted fair shares exactly,
    including flows starved by zero-capacity resources."""
    res_keys, caps, flows, weights = instance
    resources = {r: _Resource(caps[r]) for r in res_keys}
    reference = ReferenceFluidSimulator._allocate(dict(flows), resources, weights)
    vec = array_rates(res_keys, caps, flows, weights)
    for tid in flows:
        assert vec[tid] == pytest.approx(reference[tid], rel=1e-9, abs=1e-12)
    # starved flows: anything crossing a zero-capacity resource gets rate 0
    for tid in flows:
        if any(caps[r] == 0.0 for r in flows[tid]):
            assert reference[tid] == 0.0
            assert vec[tid] == 0.0


def test_weighted_shares_split_single_bottleneck_by_weight():
    """Weights 4:1 on one shared link -> 80/20 in both implementations."""
    flows = {"fg": ["r0"], "bg": ["r0"]}
    weights = {"fg": 4.0, "bg": 1.0}
    reference = ReferenceFluidSimulator._allocate(
        dict(flows), {"r0": _Resource(100.0)}, weights
    )
    assert reference == {"fg": pytest.approx(80.0), "bg": pytest.approx(20.0)}
    vec = array_rates(["r0"], {"r0": 100.0}, flows, weights)
    assert vec == {"fg": pytest.approx(80.0), "bg": pytest.approx(20.0)}


# --------------------------------------------------------------------- #
# fluid vs static §III-B1 sweep
# --------------------------------------------------------------------- #

_SWEEP_SEEDS = seed_fanout(DEFAULT_MASTER_SEED, 50)


def _random_repair_ctx(seed, homogeneous=False):
    """A random (k, m, f) repair instance on a random-bandwidth topology."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 9))
    m = int(rng.integers(2, 5))
    f = int(rng.integers(1, m + 1))
    n = k + m + f
    if homogeneous:
        ups = downs = None
    else:
        ups = rng.uniform(20, 200, size=n).tolist()
        downs = rng.uniform(20, 200, size=n).tolist()
    return make_repair_ctx(k=k, m=m, f=f, uplinks=ups, downlinks=downs)


@pytest.mark.parametrize("seed", _SWEEP_SEEDS, ids=[f"topo{s}" for s in _SWEEP_SEEDS])
def test_static_upper_bounds_fluid_across_topologies(seed):
    """50 seeded topologies: frozen §III-B1 shares never beat max-min.

    The static evaluator fixes every task's rate from global connection
    counts; the fluid simulator re-runs max-min allocation at each
    completion.  Rates can only improve as neighbors finish, so on every
    CR / IR / hybrid plan the static makespan must upper-bound the fluid one.
    """
    ctx = _random_repair_ctx(seed)
    static = StaticShareEvaluator(ctx.cluster)
    fluid = FluidSimulator(ctx.cluster)
    for plan in (plan_centralized(ctx), plan_independent(ctx), plan_hybrid(ctx)):
        t_static = static.run(plan.tasks).makespan
        t_fluid = fluid.run(plan.tasks).makespan
        assert t_static >= t_fluid - 1e-9, (
            f"topology seed {seed}: static {t_static} beat fluid {t_fluid}"
        )


@pytest.mark.parametrize("seed", _SWEEP_SEEDS[:10], ids=[f"topo{s}" for s in _SWEEP_SEEDS[:10]])
def test_static_matches_fluid_on_homogeneous_topologies(seed):
    """Uniform bandwidth: all sharers finish together, so the bound is tight."""
    ctx = _random_repair_ctx(seed, homogeneous=True)
    static = StaticShareEvaluator(ctx.cluster)
    fluid = FluidSimulator(ctx.cluster)
    for plan in (plan_centralized(ctx), plan_independent(ctx)):
        t_static = static.run(plan.tasks).makespan
        t_fluid = fluid.run(plan.tasks).makespan
        assert t_static == pytest.approx(t_fluid), f"topology seed {seed}"
