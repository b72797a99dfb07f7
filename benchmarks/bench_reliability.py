"""Durability-simulator bench: HMBR's nines advantage and the fast path.

Two claims ride in ``BENCH_reliability.json`` (suite
``reliability-simulator``, validated by ``tools/check_bench_schema.py``):

* **nines ordering** — under the correlated rack-outage model on common
  random numbers, HMBR's faster multi-block repair buys strictly more
  durability nines than CR (and never fewer than IR).  The
  ``reliability.nines`` point carries per-scheme nines / lost stripes /
  P(loss by horizon); the schema check enforces
  ``nines_hmbr > nines_cr``.
* **fast-path speedup** — the metadata-only calibrated simulation at 10k
  stripes versus the byte-materializing exact simulation of the *same
  spec* (per-event twins that encode real payloads and run full byte
  repairs).  The wall-clock ratio lands both as the
  ``reliability.fastpath`` point's ``speedup_x`` and as
  ``fastpath_speedup_x`` in the artifact's env metadata; the full-size
  run must clear 50x (not asserted under ``BENCH_SMOKE=1`` — shared
  runners jitter and shrink sizes).

All simulated quantities (nines, MTTDL, loss curves) are deterministic;
only the speedup is wall clock.  Plain test functions, no pytest-benchmark
fixture, so the smoke job runs without the plugin.
"""

import dataclasses
import os
import time

from benchmarks.conftest import record_point, set_env
from repro.reliability import ReliabilitySimulator, ReliabilitySpec

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: the paper-flavored wide-ish configuration the nines curves are pinned on.
NINES_SPEC = ReliabilitySpec(
    k=8,
    m=2,
    n_nodes=40,
    rack_size=8,
    n_spares=8,
    n_stripes=1000 if SMOKE else 2000,
    node_mttf_hours=2000.0,
    burst_rate_per_year=20.0,
    burst_loss_fraction=0.25,
    horizon_years=5.0,
    n_trials=2 if SMOKE else 4,
)

#: the fast-path speedup configuration (10k stripes full-size).
FASTPATH_SPEC = ReliabilitySpec(
    k=6,
    m=2,
    scheme="hmbr",
    n_nodes=24,
    rack_size=6,
    n_spares=6,
    n_stripes=1000 if SMOKE else 10_000,
    node_mttf_hours=3000.0,
    burst_rate_per_year=8.0,
    horizon_years=0.5 if SMOKE else 3.0,
    n_trials=1,
    twin_stripe_cap=48,
)


def _params(spec: ReliabilitySpec) -> dict:
    return {
        "k": spec.k,
        "m": spec.m,
        "n_nodes": spec.n_nodes,
        "n_stripes": spec.n_stripes,
        "n_trials": spec.n_trials,
        "horizon_years": spec.horizon_years,
        "seed": spec.seed,
        "smoke": SMOKE,
    }


def test_nines_ordering_across_schemes():
    """HMBR ≥ IR ≥ CR nines on the identical failure history."""
    metrics = {}
    lost = {}
    for scheme in ("cr", "ir", "hmbr"):
        spec = dataclasses.replace(NINES_SPEC, scheme=scheme)
        t0 = time.perf_counter()
        rep = ReliabilitySimulator(spec).run()
        wall = time.perf_counter() - t0
        lost[scheme] = sum(t.stripes_lost for t in rep.trials)
        metrics[f"nines_{scheme}"] = rep.durability_nines
        metrics[f"lost_{scheme}"] = lost[scheme]
        metrics[f"p_loss_horizon_{scheme}"] = rep.p_loss[-1]
        metrics[f"wall_s_{scheme}"] = wall
        if rep.mttdl_years is not None:
            metrics[f"mttdl_years_{scheme}"] = rep.mttdl_years
    assert metrics["nines_hmbr"] >= metrics["nines_ir"] >= metrics["nines_cr"]
    assert metrics["nines_hmbr"] > metrics["nines_cr"], (
        "HMBR must buy strictly more nines than CR at these rates"
    )
    assert lost["hmbr"] < lost["cr"]
    record_point("reliability", "reliability.nines", _params(NINES_SPEC), metrics)
    set_env(
        "reliability", nines_hmbr=metrics["nines_hmbr"],
        nines_cr=metrics["nines_cr"],
    )


def test_fastpath_speedup_over_byte_materializing():
    """Calibrated metadata simulation vs byte-materializing exact twin sim."""
    t0 = time.perf_counter()
    fast = ReliabilitySimulator(FASTPATH_SPEC).run()
    t_fast = time.perf_counter() - t0

    bytes_spec = dataclasses.replace(
        FASTPATH_SPEC, timing="exact", materialize=True
    )
    t0 = time.perf_counter()
    ReliabilitySimulator(bytes_spec).run()
    t_bytes = time.perf_counter() - t0

    speedup = t_bytes / t_fast
    n_repairs = sum(t.n_repairs for t in fast.trials)
    record_point(
        "reliability", "reliability.fastpath",
        _params(FASTPATH_SPEC),
        {
            "speedup_x": speedup,
            "fast_wall_s": t_fast,
            "bytes_wall_s": t_bytes,
            "repairs": n_repairs,
        },
    )
    set_env("reliability", fastpath_speedup_x=speedup)
    assert n_repairs > 0
    if not SMOKE:
        assert speedup >= 50.0, (
            f"metadata fast path only {speedup:.1f}x faster than "
            "byte-materializing simulation (floor: 50x)"
        )
