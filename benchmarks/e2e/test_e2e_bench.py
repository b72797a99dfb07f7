"""Self-test of the benchmark at ``--smoke`` sizes.

Run explicitly: ``python -m pytest benchmarks/e2e -q`` (tier-1's
``testpaths`` does not collect it).
"""

import copy
import inspect
import json
import re

import pytest

from benchmarks.e2e.run import bootstrap

bootstrap()

from benchmarks.e2e import compare as cmp  # noqa: E402
from benchmarks.e2e import layers  # noqa: E402
from benchmarks.e2e.harness import load_spec, run_workload  # noqa: E402
from benchmarks.e2e.trace import Span, Tracer, self_times  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One smoke ``run`` result: every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("e2e")
    result = {"seed": 11, "smoke": True, "workloads": {}, "out": out}
    for name in WORKLOADS:
        for trace in (False, True):
            detail = run_workload(
                name, seed=11, seconds=0.2, trace=trace, smoke=True, out_dir=out
            )
            result["env"] = detail["env"]
            result["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = detail
    return result


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_has_a_prediction():
    predicted = [n for row in layers.MOVES for n in row["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in SPEC["per_layer"])
    for row in layers.MOVES:
        assert set(row["moves"]) | set(row["flat"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted(results, name):
    for mode, declared in (("untraced", SPEC["end_to_end"]), ("traced", SPEC["per_layer"])):
        detail = results["workloads"][name][mode]
        assert detail["correct"] and detail["failed"] == 0 and detail["attempted"] >= 1
        assert list(detail["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            emitted = detail["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"]
            assert isinstance(emitted["value"], float)
    assert all(v["value"] > 0 for v in results["workloads"][name]["untraced"]["metrics"].values())


def test_workloads_separate_the_layers(results):
    def traced(name, metric):
        return results["workloads"][name]["traced"]["metrics"][metric]["value"]

    assert traced("ingest_scrub", "simnet.fluid_runs") == 0
    assert traced("plan_storm", "ec.encode_calls") == 0
    assert traced("plan_storm", "system.bus_bytes") == 0
    assert traced("bulk_repair", "system.verify_s") == 0
    assert traced("bulk_repair", "repair.split_search_calls") == 0
    assert traced("wide_repair", "system.verify_s") > 0
    assert traced("wide_repair", "repair.split_evals") > 0
    assert traced("serve_storm", "workload.ops") > 0
    for name in WORKLOADS:
        assert 0 < traced(name, "trace.coverage_ratio") <= 1
        assert traced(name, "trace.overhead_ratio") > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_are_well_nested(results, name):
    with open(results["out"] / f"trace.{name}.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows and {"name", "layer", "start", "end", "span_id", "parent_id", "iteration"} <= set(
        rows[0]
    )
    spans = [Span(r["name"], r["start"], r["end"], r["parent_id"], r["iteration"]) for r in rows]
    last_child_end: dict[int, float] = {}
    for span in spans:
        assert span.end >= span.start
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.iteration == span.iteration
            # siblings are recorded in start order and never overlap
            assert span.start >= last_child_end.get(span.parent, parent.start)
            last_child_end[span.parent] = span.end
    selfs = self_times(spans)
    assert min(selfs) >= 0
    roots = [s for s in spans if s.parent < 0]
    assert all(s.name == f"bench.{name}" for s in roots)
    assert sum(selfs) <= sum(s.duration for s in roots) * (1 + 1e-9)
    with open(results["out"] / f"trace.{name}.chrome.json") as fh:
        assert len(json.load(fh)["traceEvents"]) == len(spans)


def test_wrapped_functions_are_restored(results):
    tracer = Tracer()
    layers.install(tracer)
    patched = tracer.patched()
    assert patched
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is not original
    tracer.restore()
    # the traced runs behind ``results`` installed and restored as well
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original


def test_compare_verdicts(results):
    a = {k: v for k, v in results.items() if k != "out"}
    rows = cmp.compare(a, copy.deepcopy(a), SPEC)
    assert cmp.refusal(a, a) is None
    assert len(rows) >= len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all(r["verdict"] in ("same", "unresolved") and r["ratio"] == 1 for r in rows)

    # a synthetic slowdown past the bound (the bound is wide on this noisy host)
    factor = 1.1 + next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_wall_s")
    slow = copy.deepcopy(a)
    detail = slow["workloads"]["plan_storm"]["untraced"]
    detail["samples"]["op_wall_s"] = [factor * s for s in detail["samples"]["op_wall_s"]]
    drifted = slow["workloads"]["wide_repair"]["traced"]["metrics"]["simnet.makespan_sim_s"]
    drifted["value"] *= 1 + 1e-12
    verdicts = {(r["workload"], r["metric"]): r for r in cmp.compare(a, slow, SPEC)}
    assert verdicts["plan_storm", "op_wall_s"]["verdict"] == "worse"
    assert verdicts["wide_repair", "simnet.makespan_sim_s"]["verdict"] == "worse"
    assert verdicts["wide_repair", "simnet.makespan_sim_s"]["bound"] == 0
    assert verdicts["wide_repair", "op_wall_s"]["verdict"] != "worse"

    other_seed = dict(a, seed=12)
    assert "seed" in cmp.refusal(a, other_seed)
    other_backend = dict(a, env=dict(a["env"], gf_backend="numpy"))
    assert "gf_backend" in cmp.refusal(a, other_backend)
