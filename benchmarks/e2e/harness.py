"""Runs one workload in this process and reports its metrics.

End-to-end metrics are measured with tracing off.  A traced run alternates
untraced and traced iterations, so the per-layer numbers and the tracing
overhead (traced / untraced ``op_wall_s``) come from the same process.

Two clocks, always named: ``*_wall_s`` / ``*_mbps`` / ``*_ops_s`` are host
time (``time.perf_counter``); units starting ``sim_`` are simulated seconds
from the fluid model — deterministic under the seed, compared exactly.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.gf.backend import get_backend, select_backend

from . import layers
from .trace import Tracer, write_chrome_trace, write_jsonl
from .workloads import WORKLOADS, Workload

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
DEFAULT_SEED = 20230717

#: timed primary samples below which a run keeps going past ``--seconds``.
MIN_SAMPLES = 5
MIN_SAMPLES_SMOKE = 2


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "gf_backend": select_backend(8).name,
        "native_build": get_backend("native").build_info(),
    }


class _Run:
    """Accumulates samples, spans and check results over iterations."""

    def __init__(self, workload: Workload, sz: dict, inputs):
        self.workload, self.sz, self.inputs = workload, sz, inputs
        self.setup_s: list[float] = []
        #: metric name -> samples, split by whether the iteration was traced.
        self.samples = {False: {}, True: {}}
        self.tracer = Tracer()
        self.traced_ops = 0
        self.attempted = self.failed = 0
        self.state = None
        self._sim_reference: dict | None = None

    def iterate(self, traced: bool, sim_names: set[str]) -> float:
        """One fresh system: set up, run the op, check; returns its wall."""
        wl, sz = self.workload, self.sz
        gc.collect()
        start = perf_counter()
        self.state = wl.setup(self.inputs, sz)
        self.setup_s.append(perf_counter() - start)
        if traced:
            layers.install(self.tracer)
            try:
                out = self.tracer.timed(wl.op, f"bench.{wl.name}")(self.state, sz)
            finally:
                self.tracer.restore()
            self.tracer.iteration += 1
            self.traced_ops += len(out["op_wall_s"])
        else:
            out = wl.op(self.state, sz)
        for name, values in out.items():
            self.samples[traced].setdefault(name, []).extend(values)
        attempted, failed = wl.check(self.state)
        # host-only changes must leave every simulated statistic identical
        sim = {name: out[name] for name in sim_names if name in out}
        if self._sim_reference is None:
            self._sim_reference = sim
        attempted, failed = attempted + 1, failed + (sim != self._sim_reference)
        self.attempted += attempted
        self.failed += failed
        return perf_counter() - start


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    out_dir: Path | None = None,
    process_start: float | None = None,
) -> dict:
    """Measure one workload; returns the contract result plus details."""
    if process_start is None:
        process_start = perf_counter()
    # the benchmark's own calls must stay on the non-deprecated facade
    warnings.filterwarnings(
        "error", category=DeprecationWarning, message=r".*docs/API\.md migration table"
    )
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sim_names = {n for n, unit in units.items() if unit.startswith("sim_")}
    workload = WORKLOADS[name]
    sz = workload.sizes(smoke)

    # ---- one-time set-up: imports (already paid), GF tables, the native
    # kernel (compiled on the first run of a checkout), generated inputs,
    # and one discarded reduced-size warm-up iteration so lazy work never
    # lands in a timed sample
    env = environment()
    inputs = workload.prepare(seed, sz)
    warm_sz = {**sz, **workload.warm_overrides}
    warm = _Run(workload, warm_sz, workload.prepare(seed, warm_sz))
    warm.iterate(False, set())
    if trace:
        warm.iterate(True, set())
    once_s = perf_counter() - process_start

    run = _Run(workload, sz, inputs)
    min_samples = MIN_SAMPLES_SMOKE if smoke else MIN_SAMPLES
    deadline = perf_counter() + seconds
    extras: dict[str, float] = {}
    if trace:
        extras, attempted, failed = workload.trace_extras(inputs, sz)
        run.attempted += attempted
        run.failed += failed
    iteration = 0
    while True:
        traced = trace and iteration % 2 == 1
        took = run.iterate(traced, sim_names)
        iteration += 1
        if trace:
            # fewer iterations: one untraced/traced pair gives the layer split
            enough = iteration % 2 == 0
        else:
            # several set-ups per run, whatever the op count of one iteration
            enough = iteration >= 2 and len(run.samples[False]["op_wall_s"]) >= min_samples
        # stop where the total lands nearest to the requested seconds
        if enough and perf_counter() + took / 2 >= deadline:
            break
    attempted, failed = workload.final_check(run.state)
    run.attempted += attempted
    run.failed += failed

    values: dict[str, float] = {}
    if trace:
        values.update({n: 0.0 for n in units})
        values.update(layers.derive(run.tracer.spans, max(run.traced_ops, 1)))
        for metric, untraced in run.samples[False].items():
            if metric != "op_wall_s":
                values[metric] = statistics.fmean(untraced + run.samples[True][metric])
        values.update(extras)
        values["trace.overhead_ratio"] = statistics.median(
            run.samples[True]["op_wall_s"]
        ) / statistics.median(run.samples[False]["op_wall_s"])
        declared = spec["per_layer"]
    else:
        values["op_wall_s"] = statistics.median(run.samples[False]["op_wall_s"])
        values["setup_s"] = once_s + statistics.median(run.setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    detail = {
        **result,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "sizes": sz,
        "env": env,
        "samples": {
            "op_wall_s": run.samples[False].get("op_wall_s", []),
            "op_wall_s_traced": run.samples[True].get("op_wall_s", []),
            "setup_s": [once_s + s for s in run.setup_s],
        },
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if trace:
            write_jsonl(run.tracer.spans, out_dir / f"trace.{name}.jsonl")
            write_chrome_trace(run.tracer.spans, out_dir / f"trace.{name}.chrome.json")
        with open(out_dir / f"{name}.trace{int(trace)}.json", "w") as fh:
            json.dump(detail, fh, indent=1)
    return detail


def report(detail: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    n = len(detail["samples"]["op_wall_s"])
    n_traced = len(detail["samples"]["op_wall_s_traced"])
    mode = f"traced (n={n} untraced + {n_traced} traced ops)" if detail["trace"] else f"n={n} ops"
    print(
        f"# {detail['workload']} seed={detail['seed']} {mode}, "
        f"{len(detail['samples']['setup_s'])} set-ups, gf backend {detail['env']['gf_backend']}"
    )
    for name, metric in detail["metrics"].items():
        print(f"{name:32s} {metric['value']:16.6f} {metric['unit']}")
    print(
        f"{'fail_ratio':32s} {detail['failed'] / detail['attempted']:16.6f} "
        f"failed/attempted ({detail['failed']}/{detail['attempted']})"
    )
    result = {k: detail[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
