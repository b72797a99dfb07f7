"""Differential harness: the metadata fast path vs byte-materializing runs.

The reliability simulator is only trustworthy if planning without bytes
times *identically* to repairing with bytes.  This suite pins that
contract three ways over random ``(k, m, f, scheme)`` draws in GF(2^8) and
GF(2^16):

* the fast path's plans/flow graphs are byte-for-byte the plans a
  materialized twin produces (``flow_signature`` equality);
* the fast path's fluid makespan equals the real byte repair's makespan to
  1e-9 relative;
* ``plan_repair(commit=True)`` leaves the metadata in exactly the state a
  real repair leaves it (placements and spare accounting);

plus the headline ordering the paper implies: HMBR ≥ IR ≥ CR durability
nines under the correlated-outage model, on common random numbers.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.gf.field import GF
from repro.reliability import ReliabilitySimulator, ReliabilitySpec
from repro.reliability.timing import _build_twin
from repro.repair.plan import flow_signature
from repro.system.request import RepairRequest
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout

SCHEMES = ("cr", "ir", "hmbr")


def _random_case(seed, field_w):
    """One random (k, m, f, metas, dead) differential case."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 7))
    m = int(rng.integers(2, 4))
    f = int(rng.integers(1, m + 1))
    width = k + m
    n_nodes = 2 * width + int(rng.integers(0, 4))
    n_stripes = 6
    from repro.ec.stripe import StripeMeta

    metas = []
    for sid in range(n_stripes):
        place = rng.choice(n_nodes, size=width, replace=False)
        metas.append(StripeMeta(sid, k, m, tuple(int(x) for x in np.sort(place))))
    # dead nodes drawn from nodes that actually hold blocks
    holders = sorted({n for meta in metas for n in meta.placement})
    dead = [int(holders[i]) for i in rng.choice(len(holders), size=f, replace=False)]
    return dict(
        k=k,
        m=m,
        metas=metas,
        dead_nodes=dead,
        n_nodes=n_nodes,
        rack_size=4,
        bandwidth_mbps=100.0,
        block_size_mb=32.0,
        block_bytes=256,
        field=GF(field_w),
    )


@pytest.mark.parametrize("field_w", [8, 16])
@pytest.mark.parametrize("case_seed", seed_fanout(DEFAULT_MASTER_SEED, 3))
def test_fast_path_matches_byte_repair(case_seed, field_w):
    case = _random_case(case_seed + field_w, field_w)
    for scheme in SCHEMES:
        meta_coord = _build_twin(**case, materialize=False)
        byte_coord = _build_twin(**case, materialize=True)

        timing = meta_coord.plan_repair(scheme)
        byte_plan = byte_coord.plan_repair(scheme)

        # identical plans / flow graphs, not merely identical totals
        assert timing.flow_signature() == byte_plan.flow_signature()
        assert timing.makespan_s == byte_plan.makespan_s

        # the fluid makespan of the plan IS the byte repair's makespan
        result = byte_coord.repair(RepairRequest(scheme=scheme))
        assert math.isclose(timing.makespan_s, result.makespan_s, rel_tol=1e-9)
        assert timing.replacement_of == result.replacements
        assert timing.blocks_recovered == result.blocks_recovered


@pytest.mark.parametrize("scheme", SCHEMES)
def test_commit_reproduces_byte_repair_metadata(scheme):
    case = _random_case(DEFAULT_MASTER_SEED, 8)
    meta_coord = _build_twin(**case, materialize=False)
    byte_coord = _build_twin(**case, materialize=True)

    meta_coord.plan_repair(scheme, commit=True)
    byte_coord.repair(RepairRequest(scheme=scheme))

    meta_stripes = {s.stripe_id: s for s in meta_coord.layout}
    byte_stripes = {s.stripe_id: s for s in byte_coord.layout}
    for sid in range(len(case["metas"])):
        assert meta_stripes[sid].placement == byte_stripes[sid].placement
    assert meta_coord.free_spares() == byte_coord.free_spares()


def test_simulator_meta_vs_bytes_identical_event_stream():
    """Whole-simulation differential: metadata-only and byte-materializing
    trials walk the exact same event stream (times, kinds, targets)."""
    spec = ReliabilitySpec(
        k=4,
        m=2,
        scheme="hmbr",
        n_nodes=12,
        rack_size=4,
        n_spares=4,
        n_stripes=30,
        node_mttf_hours=2500.0,
        burst_rate_per_year=10.0,
        horizon_years=1.0,
        n_trials=1,
        timing="exact",
        record_events=True,
        check_invariants=True,
        twin_stripe_cap=16,
    )
    meta = ReliabilitySimulator(spec).run_trial(0)
    byte = ReliabilitySimulator(
        dataclasses.replace(spec, materialize=True)
    ).run_trial(0)
    assert meta.event_log == byte.event_log
    assert meta == byte


def test_nines_ordering_hmbr_ge_ir_ge_cr():
    """The paper's durability claim: faster multi-block repair → more nines.

    Common random numbers expose all three schemes to the identical failure
    history; only repair speed differs, so HMBR ≥ IR ≥ CR in nines (and
    strictly beats CR in lost stripes at these rates)."""
    base = ReliabilitySpec(
        k=8,
        m=2,
        n_nodes=40,
        rack_size=8,
        n_spares=8,
        n_stripes=2000,
        node_mttf_hours=2000.0,
        burst_rate_per_year=20.0,
        horizon_years=5.0,
        n_trials=4,
    )
    reports = {
        s: ReliabilitySimulator(dataclasses.replace(base, scheme=s)).run()
        for s in SCHEMES
    }
    nines = {s: r.durability_nines for s, r in reports.items()}
    lost = {s: sum(t.stripes_lost for t in r.trials) for s, r in reports.items()}
    assert nines["hmbr"] >= nines["ir"] >= nines["cr"], (nines, lost)
    assert lost["hmbr"] < lost["cr"], lost
