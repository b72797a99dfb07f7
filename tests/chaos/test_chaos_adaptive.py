"""Chaos harness: adaptive re-planning under randomized churn traces.

Every iteration builds a fresh system, writes a file, crashes nodes, then
runs an *adaptive* repair under a seed-derived churn trace — OU noise plus
random mid-repair collapses on random survivor slabs (the same master seed
and ``--chaos-seed`` replay machinery the fault storms use, so a failing
trace is one command away from reproduction).  After each round:

* **bit-exactness** — every restored block equals the originally encoded
  bytes and the file round-trips;
* **journal conservation** — the range journal tiles [0, 1) exactly once
  per repaired stripe, whatever mixture of schemes the rounds chose;
* **churn + faults compose** — a second arm runs fault storms and churned
  static repairs back-to-back on one system, pinning that the adaptive
  facade leaves the fault machinery untouched.
"""

import numpy as np
import pytest

from repro.ec.stripe import block_name
from repro.faults import FaultSchedule
from repro.simnet import NetworkTrace
from repro.system.request import RepairRequest

pytestmark = pytest.mark.chaos


def _payload(nbytes, seed):
    return np.random.default_rng(seed).integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def _churn_trace(rng, alive_ids):
    """A seed-derived trace: OU background noise + 1-2 sudden collapses."""
    trace = NetworkTrace.ou(
        duration_s=float(rng.uniform(5.0, 30.0)),
        step_s=float(rng.uniform(0.2, 1.0)),
        rel_sigma=float(rng.uniform(0.1, 0.4)),
        seed=int(rng.integers(0, 2**31)),
    )
    for _ in range(int(rng.integers(1, 3))):
        n_hit = int(rng.integers(2, max(3, len(alive_ids) // 2)))
        hit = [int(x) for x in rng.choice(alive_ids, size=n_hit, replace=False)]
        trace = trace + NetworkTrace.degrade(
            hit,
            at_time=float(rng.uniform(0.05, 2.0)),
            factor=float(rng.uniform(2.0, 32.0)),
        )
    return trace


def test_adaptive_repair_under_random_churn(chaos_system, chaos_seed):
    """Seed-derived churn storms: adaptive repairs stay bit-exact."""
    rng = np.random.default_rng(chaos_seed)
    coord = chaos_system(chaos_seed)
    data = _payload(40_000, chaos_seed)
    coord.write("f", data)
    originals = {
        (s.stripe_id, b): coord.agents[n].read_block(block_name(s.stripe_id, b)).copy()
        for s in coord.layout
        for b, n in enumerate(s.placement)
    }

    n_down = int(rng.integers(1, 3))
    for v in rng.choice(16, size=n_down, replace=False):
        coord.crash_node(int(v))
    trace = _churn_trace(rng, coord.cluster.alive_ids())
    scheme = ("hmbr", "cr", "ir", "mlf")[int(rng.integers(0, 4))]

    res = coord.repair(RepairRequest(
        scheme=scheme, network=trace, adaptive=True,
        drift_threshold=float(rng.uniform(0.05, 0.5)),
    ))

    for stripe in coord.layout:
        for b, node in enumerate(stripe.placement):
            got = coord.agents[node].read_block(block_name(stripe.stripe_id, b))
            assert np.array_equal(got, originals[(stripe.stripe_id, b)]), (
                f"seed {chaos_seed}: stripe {stripe.stripe_id} block {b} differs"
            )
    assert coord.read("f") == data
    assert coord.scrub() == {s.stripe_id: True for s in coord.layout}

    # the range journal tiles [0, 1) exactly once per repaired stripe
    journal = res.report.journal
    assert sorted(journal.keys()) == [f"s{sid:04d}" for sid in sorted(res.stripes_repaired)]
    for key in journal.keys():
        assert journal.is_complete(key), f"seed {chaos_seed}: {key} journal has gaps"
    assert res.report.wasted_mb >= 0.0


def test_churn_and_fault_storms_compose(chaos_system, chaos_seed):
    """Churned adaptive repair, then a fault-storm repair, on one system."""
    rng = np.random.default_rng(chaos_seed ^ 0x5EED)
    coord = chaos_system(chaos_seed)
    data = _payload(30_000, chaos_seed)
    coord.write("f", data)

    coord.crash_node(int(rng.integers(0, 16)))
    trace = _churn_trace(rng, coord.cluster.alive_ids())
    coord.repair(RepairRequest(scheme="hmbr", network=trace, adaptive=True))
    assert coord.read("f") == data

    # second wave: a fault storm on the repaired system (legacy machinery)
    targets = [i for i in coord.cluster.alive_ids()]
    coord.crash_node(targets[0])
    schedule = FaultSchedule.random(
        chaos_seed,
        targets[1:],
        n_events=int(rng.integers(2, 6)),
        horizon_s=float(rng.uniform(0.05, 0.4)),
        max_kills=coord.code.m - 1,
    )
    coord.repair(RepairRequest(scheme="hmbr", faults=schedule, max_retries=10,
                               base_backoff_s=0.25))
    assert coord.read("f") == data
    assert coord.scrub() == {s.stripe_id: True for s in coord.layout}
