"""``compare A.json B.json``: one row per (workload, end-to-end metric).

Each row gives both medians with their quartiles, the ratio B / A (A is the
base), the metric's regression bound and a verdict.  Simulated metrics
(units starting ``sim_``, from the traced runs) are compared exactly: their
bound is 0.
"""

from __future__ import annotations

import json
import statistics

def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def refusal(a: dict, b: dict) -> str | None:
    """Why the two result files cannot be compared, or ``None``."""
    for key in ("seed", "smoke"):
        if a[key] != b[key]:
            return f"{key} differs: {a[key]!r} vs {b[key]!r}"
    for key in ("gf_backend", "nproc"):
        if a["env"][key] != b["env"][key]:
            return f"env.{key} differs: {a['env'][key]!r} vs {b['env'][key]!r}"
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        size_a = a["workloads"][name]["untraced"]["sizes"]
        size_b = b["workloads"][name]["untraced"]["sizes"]
        if size_a != size_b:
            return f"sizes of {name} differ: {size_a} vs {size_b}"
    if not set(a["workloads"]) & set(b["workloads"]):
        return "no workload is in both files"
    return None


def _summary(detail: dict, metric: str) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of one side's metric."""
    samples = detail["samples"].get(metric, [])
    if len(samples) >= 2:
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        return q1, q2, q3
    value = detail["metrics"][metric]["value"]
    return value, value, value


def _verdict(a, b, better: str, bound: float) -> str:
    """``a``/``b`` are (q1, median, q3); ``b`` is judged against base ``a``."""
    base, new = a[1], b[1]
    change = (new - base) / base if base else (0.0 if new == base else float("inf"))
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    spread = max((a[2] - a[0]) / a[1] if a[1] else 0.0, (b[2] - b[0]) / b[1] if b[1] else 0.0)
    # a spread wider than the bound cannot show that nothing changed
    return "unresolved" if spread > bound else "same"


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    """The rows; call :func:`refusal` first."""
    rows = []
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            sa = _summary(wa["untraced"], metric["name"])
            sb = _summary(wb["untraced"], metric["name"])
            rows.append(_row(name, metric, sa, sb, metric["bound"]))
        if "traced" in wa and "traced" in wb:
            for metric in spec["per_layer"]:
                if metric["unit"].startswith("sim_"):
                    sa = _summary(wa["traced"], metric["name"])
                    sb = _summary(wb["traced"], metric["name"])
                    if sa[1] or sb[1]:  # 0 on both sides: not defined on this workload
                        rows.append(_row(name, metric, sa, sb, 0.0))
    return rows


def _row(workload, metric, sa, sb, bound) -> dict:
    return {
        "workload": workload,
        "metric": metric["name"],
        "unit": metric["unit"],
        "a": sa,
        "b": sb,
        "ratio": sb[1] / sa[1] if sa[1] else float("nan"),
        "bound": bound,
        "verdict": _verdict(sa, sb, metric["better"], bound),
    }


def format_rows(rows: list[dict]) -> str:
    def cell(summary):
        q1, med, q3 = summary
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"

    lines = [
        f"{'workload':13s} {'metric':26s} {'unit':8s} {'A median [q1, q3]':34s} "
        f"{'B median [q1, q3]':34s} {'B/A (base A)':>13s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        verdict = r["verdict"]
        if verdict == "unresolved":
            verdict += " — spread wider than the bound"
        lines.append(
            f"{r['workload']:13s} {r['metric']:26s} {r['unit']:8s} {cell(r['a']):34s} "
            f"{cell(r['b']):34s} {r['ratio']:13.4f} {r['bound']:6.2f}  {verdict}"
        )
    return "\n".join(lines)
