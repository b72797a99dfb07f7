#!/usr/bin/env python
"""Regenerate the golden fixtures under ``tests/golden/``.

Goldens pin the *numbers* of the paper experiments — small, fast
configurations of exp1 (Fig. 8), exp5 (Fig. 12), and exp6 (Table II) —
as canonical JSON.  ``tests/test_goldens.py`` regenerates each one
in-process and byte-compares it against the committed file, so any
refactor that silently shifts a paper figure turns a test red instead of
quietly corrupting the reproduction.

Every golden config is deterministic: seeds are fixed, and no wall-clock
measurement feeds the outputs (exp6's compute column comes from GF *bytes*
at a pinned :class:`~repro.analysis.breakdown.CostModel` throughput).

Usage::

    PYTHONPATH=src python tools/regen_goldens.py            # rewrite all
    PYTHONPATH=src python tools/regen_goldens.py --check    # verify only
    PYTHONPATH=src python tools/regen_goldens.py exp5       # one fixture
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "golden"

#: float digits kept in goldens — enough to catch any real numeric drift,
#: few enough to survive benign last-ulp differences across BLAS/libm builds.
FLOAT_DIGITS = 8


def _canon(obj):
    """Canonicalize for byte-stable JSON: numpy scalars out, floats rounded."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round(float(obj), FLOAT_DIGITS)
    return obj


def canonical_json(rows) -> str:
    return json.dumps(_canon(rows), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------- #
# golden configs: small, fast, deterministic
# --------------------------------------------------------------------- #
def gen_exp1() -> str:
    from repro.experiments.exp1 import run

    rows = run(
        grid=[(6, 3, 2), (9, 3, 3)],
        wlds=["WLD-2x", "WLD-8x"],
        seeds=(2023, 2024),
    )
    return canonical_json(rows)


def gen_exp5() -> str:
    from repro.experiments.exp5 import run

    rows = run(
        cases=[(8, 4, 4)],
        seeds=(2023,),
        n_data_nodes=24,
        n_stripes=12,
        wld="WLD-4x",
    )
    return canonical_json(rows)


def gen_exp6() -> str:
    from repro.experiments.exp6 import run

    rows = run(cases=[(8, 4)], seed=2023, test_block_bytes=1 << 14)
    return canonical_json(rows)


def gen_serving() -> str:
    """The canonical three-regime serving scenario (ISSUE 6).

    One seeded workload served five ways — healthy, degraded (two dead
    nodes), the same degraded scenario with the chunked read pipeline
    (ISSUE 7, ``chunks=4`` at a slow decode so the overlap is visible),
    and under the same repair storm at weighted vs equal sharing — each
    regime on a fresh identically-seeded system.  Pins the whole
    :meth:`~repro.workload.serving.ServeResult.summary` (latency
    percentiles included: they are simulated time, never wall clock).
    """
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster
    from repro.ec.rs import RSCode
    from repro.system.coordinator import Coordinator
    from repro.system.request import RepairRequest
    from repro.workload import ServingPlane, WorkloadSpec

    spec = WorkloadSpec(
        n_objects=6, object_bytes=2 * 4 * 4096, duration_s=5.0,
        rate_ops_s=6.0, read_fraction=0.85, write_bytes=256, seed=2023,
    )

    def build(kill=0, fg_weight=4.0, chunks=1, decode_mbps=1024.0):
        coord = Coordinator(
            Cluster([Node(i, 100.0, 100.0) for i in range(12)]),
            RSCode(4, 2), block_bytes=4096, block_size_mb=32.0,
            rng=2023, heartbeat_timeout=5.0,
        )
        for j in range(4):
            coord.add_spare(Node(12 + j, 100.0, 100.0))
        plane = ServingPlane(
            coord, spec, foreground_weight=fg_weight,
            chunks=chunks, decode_mbps=decode_mbps,
        )
        plane.provision()
        if kill:
            sid0 = coord.files[spec.object_name(0)][0][0]
            stripe = next(s for s in coord.layout if s.stripe_id == sid0)
            for v in stripe.placement[:kill]:
                coord.crash_node(v)
        return plane

    storm = lambda w=None: (  # noqa: E731
        RepairRequest(scheme="hmbr", priority="background")
        if w is None
        else RepairRequest(scheme="hmbr", weight=w),
    )
    regimes = {
        "healthy": build().run().summary(),
        "degraded": build(kill=2).run().summary(),
        "pipelined": build(kill=2, chunks=4, decode_mbps=16.0).run().summary(),
        "storm_weighted": build(kill=2).run(repair=storm()).summary(),
        "storm_equal": build(kill=2, fg_weight=1.0).run(repair=storm(1.0)).summary(),
    }
    return canonical_json(regimes)


def gen_reliability() -> str:
    """A small deterministic durability run per scheme (ISSUE 8).

    Calibrated timing on a pocket cluster with rates aggressive enough
    that losses occur within the horizon, so the golden pins the whole
    chain — engine calibration points, the seeded event stream's loss
    accounting, Wilson-bounded nines, and the cross-scheme ordering — as
    plain numbers.  Everything is simulated time; no wall clock feeds in.
    """
    import dataclasses

    from repro.reliability import ReliabilitySimulator, ReliabilitySpec

    base = ReliabilitySpec(
        k=4, m=2, n_nodes=16, rack_size=4, n_spares=4, n_stripes=300,
        node_mttf_hours=2000.0, burst_rate_per_year=12.0,
        lse_rate_per_node_year=10.0, scrub_interval_hours=500.0,
        horizon_years=2.0, n_trials=2,
    )
    out = {}
    for scheme in ("cr", "ir", "hmbr"):
        rep = ReliabilitySimulator(
            dataclasses.replace(base, scheme=scheme)
        ).run()
        out[scheme] = {
            "summary": rep.summary(),
            "calibration": rep.calibration,
            "mttdl_years": rep.mttdl_years,
        }
    return canonical_json(out)


def gen_adaptive() -> str:
    """Adaptive re-planning through the facade, every adaptive scheme.

    Each of ``hmbr`` / ``cr`` / ``ir`` / ``mlf`` repairs a seeded
    two-node failure under a step collapse and under OU churn plus a
    collapse, on a fresh identically-seeded system.  Pins the engine's
    whole decision trail — every round's cut instant, drift, tripping
    flow and scheme, every committed piece — plus a digest of the stored
    bytes, which must equal the healthy write's.
    """
    import hashlib

    from repro.cluster.bandwidth import make_wld
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster
    from repro.ec.rs import RSCode
    from repro.ec.stripe import block_name
    from repro.simnet import NetworkTrace
    from repro.system.coordinator import Coordinator
    from repro.system.request import RepairRequest

    def build():
        ds = make_wld(22, "WLD-4x", seed=2023)
        bw = lambda i: (float(ds.uplinks[i]), float(ds.downlinks[i]))  # noqa: E731
        coord = Coordinator(
            Cluster(Node(i, *bw(i)) for i in range(18)), RSCode(6, 3),
            block_bytes=1024, block_size_mb=64.0, rng=2023,
        )
        for i in range(18, 22):
            coord.add_spare(Node(i, *bw(i)))
        return coord

    payload = np.random.default_rng(2023).integers(0, 256, 40_000, dtype=np.uint8).tobytes()
    traces = {
        "degrade": NetworkTrace.degrade(list(range(2, 12)), at_time=0.6, factor=20.0),
        "ou_collapse": NetworkTrace.ou(duration_s=20.0, step_s=0.5, rel_sigma=0.3, seed=7)
        + NetworkTrace.degrade([3, 5, 7, 9, 11], at_time=0.4, factor=8.0),
    }
    out = {}
    for trace_name, trace in traces.items():
        for scheme in ("hmbr", "cr", "ir", "mlf"):
            coord = build()
            coord.write("f", payload)
            coord.crash_node(0)
            coord.crash_node(1)
            res = coord.repair(RepairRequest(scheme=scheme, network=trace, adaptive=True))
            assert coord.read("f") == payload
            rep = res.report
            digest = hashlib.sha256()
            for s in coord.layout:
                for b, n in enumerate(s.placement):
                    digest.update(coord.agents[n].read_block(block_name(s.stripe_id, b)).tobytes())
            out[f"{trace_name}/{scheme}"] = {
                "makespan_s": rep.makespan_s,
                "replans": rep.replans,
                "rounds": [
                    {
                        "boundary_s": r.boundary_s,
                        "drift": r.drift,
                        "drift_task": r.drift_task,
                        "scheme_by_key": r.scheme_by_key,
                        "wasted_mb": r.wasted_mb,
                    }
                    for r in rep.rounds
                ],
                "pieces": {
                    key: [
                        {"lo": p.lo, "hi": p.hi, "scheme": p.scheme, "piece_id": p.piece_id}
                        for p in pieces
                    ]
                    for key, pieces in rep.pieces.items()
                },
                "bytes_sha256": digest.hexdigest(),
            }
    return canonical_json(out)


GENERATORS = {
    "adaptive": gen_adaptive,
    "exp1": gen_exp1,
    "exp5": gen_exp5,
    "exp6": gen_exp6,
    "reliability": gen_reliability,
    "serving": gen_serving,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="fixtures to regenerate (default: all)")
    ap.add_argument("--check", action="store_true", help="verify committed goldens instead of rewriting")
    args = ap.parse_args(argv)
    unknown = [n for n in args.names if n not in GENERATORS]
    if unknown:
        ap.error(f"unknown fixture(s) {unknown}; choose from {sorted(GENERATORS)}")
    names = args.names or sorted(GENERATORS)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    stale = []
    for name in names:
        text = GENERATORS[name]()
        path = GOLDEN_DIR / f"{name}.json"
        if args.check:
            if not path.exists() or path.read_text() != text:
                stale.append(name)
                print(f"STALE: {path.relative_to(REPO)}")
            else:
                print(f"ok: {path.relative_to(REPO)}")
        else:
            path.write_text(text)
            print(f"wrote {path.relative_to(REPO)} ({len(text)} bytes)")
    if stale:
        print(f"\n{len(stale)} stale golden(s); regenerate with: PYTHONPATH=src python tools/regen_goldens.py")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
