#!/usr/bin/env python3
"""Validate perf-trajectory artifacts (BENCH_*.json) against schema v1.

Usage::

    python tools/check_bench_schema.py [path ...]

Defaults to the repo-root ``BENCH_batch.json``, ``BENCH_sched.json``,
``BENCH_serving.json``, ``BENCH_reliability.json``, and
``BENCH_adaptive.json``.
Exits non-zero (listing every violation) if a document does not match the
schema the benchmarks emit, so CI catches a drifting artifact before it is
uploaded:

* top level: ``schema_version`` (== 1), ``suite`` (non-empty str),
  ``env`` (dict of scalars), ``points`` (non-empty list), nothing else;
* each point: ``bench`` (non-empty str, unique), ``params`` (dict of
  int/float/str/bool), ``metrics`` (non-empty dict of finite numbers);
* at least one point carries a positive ``speedup_x`` metric — the whole
  reason the trajectory exists;
* suite ``batched-multi-stripe-repair`` additionally reports the selected
  GF kernel tier as a non-empty ``env.backend`` string, carries at least
  one point with a positive ``decode_mbps`` metric, and — when a full-
  fidelity (``env.smoke`` false) ``ec_codec.backend_native.gf8`` point is
  present — holds the native tier's ``vs_numpy_x`` to the >= 5x
  acceptance floor; it also carries at least one point with a positive
  ``encode_mbps`` metric, and a full-fidelity ``ec_codec.encode_seam.gf8``
  point holds the data-plane seam's ``vs_reference_x`` to >= 4x the
  ``gf_matmul`` LUT reference;
* suite ``online-serving-plane`` additionally carries a
  ``serving.chunk_sweep`` point whose ``p99_ratio_c{chunks}`` metrics
  (at least two) fall strictly as ``chunks`` grows and never dip below
  1 — pinning that the chunked degraded-read pipeline closes the
  degraded/healthy p99 gap monotonically without beating healthy reads;
* suite ``reliability-simulator`` additionally carries a
  ``reliability.nines`` point whose ``nines_hmbr`` strictly exceeds
  ``nines_cr`` (faster multi-block repair must buy durability), and its
  ``env`` must report a positive ``fastpath_speedup_x`` — the measured
  advantage of metadata-only simulation over byte materialization;
* suite ``adaptive-replan`` additionally carries at least one
  ``adaptive.replan*`` point whose ``t_adaptive_s`` strictly beats
  ``t_static_s``, and its ``env`` must report ``adaptive_speedup_x``
  strictly above 1 — re-planning the remaining volume under churn has to
  win, or the adaptive layer is dead weight.
"""

import json
import math
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
TOP_KEYS = {"schema_version", "suite", "env", "points"}
SCALARS = (int, float, str, bool)


def check_doc(doc, errors):
    """Append one message per schema violation found in ``doc``."""
    if not isinstance(doc, dict):
        errors.append("top level is not an object")
        return
    if set(doc) != TOP_KEYS:
        errors.append(f"top-level keys {sorted(doc)} != {sorted(TOP_KEYS)}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}")
    if not (isinstance(doc.get("suite"), str) and doc.get("suite")):
        errors.append("suite must be a non-empty string")
    env = doc.get("env")
    if not isinstance(env, dict) or not all(
        isinstance(v, SCALARS) for v in env.values()
    ):
        errors.append("env must be a dict of scalar values")
    points = doc.get("points")
    if not (isinstance(points, list) and points):
        errors.append("points must be a non-empty list")
        return
    names = []
    for i, point in enumerate(points):
        where = f"points[{i}]"
        if not isinstance(point, dict):
            errors.append(f"{where} is not an object")
            continue
        bench = point.get("bench")
        if not (isinstance(bench, str) and bench):
            errors.append(f"{where}.bench must be a non-empty string")
        else:
            names.append(bench)
        params = point.get("params")
        if not isinstance(params, dict) or not all(
            isinstance(v, SCALARS) for v in params.values()
        ):
            errors.append(f"{where}.params must be a dict of scalar values")
        metrics = point.get("metrics")
        if not (isinstance(metrics, dict) and metrics):
            errors.append(f"{where}.metrics must be a non-empty dict")
            continue
        for key, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"{where}.metrics[{key!r}] is not a number")
            elif not math.isfinite(value):
                errors.append(f"{where}.metrics[{key!r}] is not finite")
    if len(names) != len(set(names)):
        errors.append("duplicate bench names in points")
    speedups = [
        p["metrics"]["speedup_x"]
        for p in points
        if isinstance(p, dict)
        and isinstance(p.get("metrics"), dict)
        and isinstance(p["metrics"].get("speedup_x"), (int, float))
    ]
    if not any(s > 0 for s in speedups):
        errors.append("no point carries a positive speedup_x metric")
    if doc.get("suite") == "batched-multi-stripe-repair":
        check_batch_backend(doc, points, errors)
    if doc.get("suite") == "online-serving-plane":
        check_chunk_sweep(points, errors)
    if doc.get("suite") == "reliability-simulator":
        check_reliability(doc, points, errors)
    if doc.get("suite") == "adaptive-replan":
        check_adaptive(doc, points, errors)


#: full-fidelity floor for the native kernel tier vs the NumPy tier on
#: the GF(2^8) backend point (mirrors benchmarks/bench_ec_codec.py).
NATIVE_SPEEDUP_FLOOR = 5.0


#: full-fidelity floor for an encode through the data-plane seam vs the
#: ``gf_matmul`` LUT reference (mirrors benchmarks/bench_ec_codec.py).
ENCODE_SEAM_FLOOR = 4.0

#: batch-suite bench -> (ratio metric, full-fidelity floor).
BATCH_FLOORS = {
    "ec_codec.backend_native.gf8": ("vs_numpy_x", NATIVE_SPEEDUP_FLOOR),
    "ec_codec.encode_seam.gf8": ("vs_reference_x", ENCODE_SEAM_FLOOR),
}


def check_batch_backend(doc, points, errors):
    """The batch suite must name its kernel tier and pin its throughput."""
    env = doc.get("env")
    backend = env.get("backend") if isinstance(env, dict) else None
    if not (isinstance(backend, str) and backend):
        errors.append("batch suite env needs a non-empty 'backend' string")
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)  # noqa: E731
    metrics_of = {
        p.get("bench"): p["metrics"]
        for p in points
        if isinstance(p, dict) and isinstance(p.get("metrics"), dict)
    }
    for name in ("decode_mbps", "encode_mbps"):
        values = [m[name] for m in metrics_of.values() if numeric(m.get(name))]
        if not any(v > 0 for v in values):
            errors.append(f"batch suite needs a point with a positive {name} metric")
    if not (isinstance(env, dict) and env.get("smoke") is False):
        return  # smoke sizes are too small to hold a speedup floor
    for bench, (metric, floor) in BATCH_FLOORS.items():
        if bench not in metrics_of:
            continue
        ratio = metrics_of[bench].get(metric)
        if not numeric(ratio):
            errors.append(f"{bench} needs a numeric {metric}")
        elif ratio < floor:
            errors.append(
                f"{bench} {metric} ({ratio}) below the {floor}x acceptance floor"
            )


def check_chunk_sweep(points, errors):
    """The serving suite must pin a monotone degraded-read chunk sweep."""
    sweep = next(
        (
            p
            for p in points
            if isinstance(p, dict) and p.get("bench") == "serving.chunk_sweep"
        ),
        None,
    )
    if sweep is None:
        errors.append("serving suite lacks a 'serving.chunk_sweep' point")
        return
    metrics = sweep.get("metrics")
    if not isinstance(metrics, dict):
        return  # already reported by the generic point checks
    ratios = {}
    for key, value in metrics.items():
        match = re.fullmatch(r"p99_ratio_c(\d+)", key)
        if match and isinstance(value, (int, float)) and not isinstance(value, bool):
            ratios[int(match.group(1))] = value
    if len(ratios) < 2:
        errors.append("serving.chunk_sweep needs >= 2 p99_ratio_c<chunks> metrics")
        return
    grid = sorted(ratios)
    for a, b in zip(grid, grid[1:]):
        if not ratios[b] < ratios[a]:
            errors.append(
                f"serving.chunk_sweep p99_ratio_c{b} ({ratios[b]}) must be "
                f"< p99_ratio_c{a} ({ratios[a]}): more chunks must help"
            )
    low = min(ratios.values())
    if low < 1.0 - 1e-3:
        errors.append(
            f"serving.chunk_sweep min p99 ratio {low} < 1: degraded reads "
            "cannot beat healthy reads"
        )


def check_reliability(doc, points, errors):
    """The reliability suite must pin HMBR's nines win and the fast path."""
    env = doc.get("env")
    speedup = env.get("fastpath_speedup_x") if isinstance(env, dict) else None
    if (
        isinstance(speedup, bool)
        or not isinstance(speedup, (int, float))
        or not math.isfinite(speedup)
        or speedup <= 0
    ):
        errors.append(
            "reliability suite env needs a positive finite fastpath_speedup_x"
        )
    nines = next(
        (
            p
            for p in points
            if isinstance(p, dict) and p.get("bench") == "reliability.nines"
        ),
        None,
    )
    if nines is None:
        errors.append("reliability suite lacks a 'reliability.nines' point")
        return
    metrics = nines.get("metrics")
    if not isinstance(metrics, dict):
        return  # already reported by the generic point checks
    hmbr = metrics.get("nines_hmbr")
    cr = metrics.get("nines_cr")
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)  # noqa: E731
    if not (numeric(hmbr) and numeric(cr)):
        errors.append("reliability.nines needs numeric nines_hmbr and nines_cr")
        return
    if not hmbr > cr:
        errors.append(
            f"reliability.nines nines_hmbr ({hmbr}) must be strictly greater "
            f"than nines_cr ({cr}): faster repair must buy durability"
        )


def check_adaptive(doc, points, errors):
    """The adaptive suite must pin that re-planning beats the static plan."""
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)  # noqa: E731
    env = doc.get("env")
    speedup = env.get("adaptive_speedup_x") if isinstance(env, dict) else None
    if not numeric(speedup) or not math.isfinite(speedup):
        errors.append("adaptive suite env needs a finite adaptive_speedup_x")
    elif not speedup > 1.0:
        errors.append(
            f"adaptive suite env adaptive_speedup_x ({speedup}) must be "
            "strictly > 1: re-planning under churn has to win"
        )
    replans = [
        p
        for p in points
        if isinstance(p, dict)
        and isinstance(p.get("bench"), str)
        and p["bench"].startswith("adaptive.replan")
    ]
    if not replans:
        errors.append("adaptive suite lacks an 'adaptive.replan*' point")
        return
    for p in replans:
        metrics = p.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by the generic point checks
        t_static = metrics.get("t_static_s")
        t_adaptive = metrics.get("t_adaptive_s")
        if not (numeric(t_static) and numeric(t_adaptive)):
            errors.append(
                f"{p['bench']} needs numeric t_static_s and t_adaptive_s"
            )
        elif not t_adaptive < t_static:
            errors.append(
                f"{p['bench']} t_adaptive_s ({t_adaptive}) must be strictly "
                f"below t_static_s ({t_static})"
            )


def check_file(path: Path) -> list[str]:
    """All schema violations for one artifact file (empty list == valid)."""
    if not path.exists():
        return [f"{path}: missing"]
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON: {exc}"]
    errors: list[str] = []
    check_doc(doc, errors)
    return [f"{path}: {e}" for e in errors]


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [
        REPO / "BENCH_batch.json",
        REPO / "BENCH_sched.json",
        REPO / "BENCH_serving.json",
        REPO / "BENCH_reliability.json",
        REPO / "BENCH_adaptive.json",
    ]
    failures = []
    for path in paths:
        errs = check_file(path)
        if errs:
            failures.extend(errs)
        else:
            doc = json.loads(path.read_text())
            print(f"{path}: ok ({len(doc['points'])} point(s), suite {doc['suite']!r})")
    for err in failures:
        print(f"SCHEMA: {err}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
