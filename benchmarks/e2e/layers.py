"""Which entry points the traced run wraps, and what it derives from them.

Layers are the ``repro`` package names.  Only entry points called at most
~10^4 times per iteration are wrapped (never ``Cluster.__getitem__``-class
helpers), so tracing overhead stays a few percent; the harness reports it
as ``trace.overhead_ratio``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import repro.repair.centralized
import repro.repair.hybrid
import repro.repair.independent
import repro.repair.mlf
import repro.repair.rackaware
import repro.repair.split
import repro.repair.validate
import repro.system.coordinator
from repro.ec.rs import RSCode
from repro.gf.backend import get_backend, registered_backends
from repro.gf.field import GF
from repro.gf.matrix import gf_inv, gf_matmul
from repro.repair.batch import BatchRepairEngine
from repro.sched.scheduler import RepairScheduler
from repro.simnet.fluid import FluidSimulator
from repro.system.agent import Agent
from repro.system.coordinator import Coordinator
from repro.workload.serving import ServingPlane

from .trace import Span, Tracer, has_ancestor, self_times

MIB = float(1 << 20)

#: the public facade calls; what is left in their self time is coordinator
#: orchestration no lower layer accounts for.
FACADE = ("repair", "plan_repair", "write", "update", "scrub", "read", "serve")


def _result_bytes(args, kwargs, result) -> float:
    return getattr(result, "nbytes", 0)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""
    wrap, wrap_fn = tracer.wrap_attr, tracer.wrap_function

    # gf: the slow LUT path, the per-buffer kernels, the backend seam
    wrap(GF, "mul", "gf.mul", _result_bytes)
    wrap_fn(gf_matmul, "gf.mul", _result_bytes)
    for attr in ("addmul", "scale", "combine"):
        wrap(GF, attr, "gf.addmul")
    for backend in {type(get_backend(name)) for name in registered_backends()}:
        wrap(backend, "plane_matmul", "gf.backend", lambda a, k, r: a[2].nbytes)
    wrap_fn(gf_inv, "gf.inv")

    # ec
    for attr in ("encode", "encode_stripe"):
        wrap(RSCode, attr, "ec.encode", lambda a, k, r: np.asarray(a[1]).nbytes)
    for attr in ("decode", "decode_stripe"):
        wrap(RSCode, attr, "ec.decode")
    wrap(RSCode, "repair_matrix", "ec.repair_matrix")

    # simnet
    wrap(FluidSimulator, "run", "simnet.fluid_run", lambda a, k, r: len(a[1]))

    # repair
    wrap_fn(repro.repair.split.search_split, "repair.split_search")
    for planner in (
        repro.repair.centralized.plan_centralized,
        repro.repair.independent.plan_independent,
        repro.repair.hybrid.plan_hybrid,
        repro.repair.mlf.plan_mlf,
        repro.repair.rackaware.plan_rack_aware_hybrid,
    ):
        wrap_fn(planner, "repair.plan_build")
    wrap_fn(repro.repair.validate.validate_plan, "repair.validate")
    wrap(BatchRepairEngine, "repair_items", "repair.batch_decode", lambda a, k, r: r.groups)
    wrap(BatchRepairEngine, "decode_batch", "repair.batch_decode", lambda a, k, r: 1)

    # system
    for attr in FACADE:
        wrap(Coordinator, attr, f"system.{attr}")
    for attr in ("do_slice", "do_combine", "do_concat", "send_to"):
        wrap(Agent, attr, "system.agent_ops")

    # sched, workload
    wrap(RepairScheduler, "run_pending", "sched.run_pending")
    wrap(RepairScheduler, "estimate_finish_s", "sched.eta")
    wrap(ServingPlane, "run", "workload.serve")


#: span name -> (self-time metric, outermost-call-count metric,
#: (work metric, divisor)); ``None`` where the ISSUE lists no such metric.
_SPAN_METRICS = {
    "gf.mul": ("gf.mul_s", "gf.mul_calls", ("gf.mul_mb", MIB)),
    "gf.addmul": ("gf.addmul_s", "gf.addmul_calls", None),
    "gf.backend": ("gf.backend_s", "gf.backend_calls", ("gf.backend_mb", MIB)),
    "gf.inv": ("gf.inv_s", "gf.inv_calls", None),
    "ec.encode": ("ec.encode_s", "ec.encode_calls", ("ec.encode_mb", MIB)),
    "ec.decode": ("ec.decode_s", "ec.decode_calls", None),
    "ec.repair_matrix": ("ec.repair_matrix_s", "ec.repair_matrix_calls", None),
    "simnet.fluid_run": ("simnet.fluid_run_s", "simnet.fluid_runs", ("simnet.fluid_tasks", 1.0)),
    "repair.split_search": ("repair.split_search_s", "repair.split_search_calls", None),
    "repair.plan_build": ("repair.plan_build_s", "repair.plans", None),
    "repair.validate": ("repair.validate_s", None, None),
    "repair.batch_decode": ("repair.batch_decode_s", None, ("repair.batch_groups", 1.0)),
    "system.repair": ("system.repair_self_s", None, None),
    "system.plan_repair": ("system.plan_repair_self_s", None, None),
    "system.write": ("system.write_self_s", None, None),
    "system.update": ("system.update_self_s", None, None),
    "system.scrub": ("system.scrub_self_s", None, None),
    "system.read": ("system.read_self_s", None, None),
    "system.agent_ops": ("system.agent_ops_s", "system.agent_ops", None),
    "sched.run_pending": ("sched.run_pending_self_s", None, None),
    "sched.eta": ("sched.eta_s", None, None),
    "workload.serve": ("workload.serve_self_s", None, None),
}

_FACADE_SPANS = {f"system.{attr}" for attr in FACADE}


def derive(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` timed operations.

    ``*_s`` is span self time summed and divided by ``n_ops``; counts and
    work sizes take only a group's outermost spans (``combine -> addmul ->
    scale`` is one call), also per operation.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    verify_s = 0.0
    split_evals = 0
    facade_self = facade_total = 0.0
    for idx, span in enumerate(spans):
        self_s[span.name] += selfs[idx]
        outermost = span.parent < 0 or spans[span.parent].name != span.name
        if outermost:
            calls[span.name] += 1
            work[span.name] += span.work
        if span.name == "ec.encode" and outermost and has_ancestor(spans, idx, {"system.repair"}):
            # _verify_stripe is private: verification is the re-encode a
            # repair call makes
            verify_s += span.duration
        elif span.name == "simnet.fluid_run" and has_ancestor(spans, idx, {"repair.split_search"}):
            split_evals += 1
        elif span.name in _FACADE_SPANS:
            facade_self += selfs[idx]
            if not has_ancestor(spans, idx, _FACADE_SPANS):
                facade_total += span.duration

    out: dict[str, float] = {}
    for name, (self_metric, calls_metric, work_metric) in _SPAN_METRICS.items():
        out[self_metric] = self_s[name] / n_ops
        if calls_metric:
            out[calls_metric] = calls[name] / n_ops
        if work_metric:
            out[work_metric[0]] = work[name] / work_metric[1] / n_ops
    out["system.verify_s"] = verify_s / n_ops
    out["repair.split_evals"] = split_evals / n_ops
    tasks = work["simnet.fluid_run"]
    out["simnet.fluid_us_per_task"] = self_s["simnet.fluid_run"] * 1e6 / tasks if tasks else 0.0
    out["trace.coverage_ratio"] = 1.0 - facade_self / facade_total if facade_total else 0.0
    return out


#: How the metrics interact, written down before measuring: for each group
#: of layer metrics, the workloads whose ``op_wall_s`` it should move and the
#: workloads on which the prediction is *no change*.
MOVES = [
    {
        "metrics": ["simnet.fluid_run_s", "simnet.fluid_runs", "simnet.fluid_tasks",
                    "simnet.fluid_us_per_task"],
        "moves": {"plan_storm": "almost all of op_wall_s",
                  "wide_repair": "~30-37% of op_wall_s, through split search",
                  "serve_storm": "the merged foreground+repair run"},
        "flat": {"bulk_repair": "1 fluid run per round", "ingest_scrub": "0 fluid runs"},
    },
    {
        "metrics": ["repair.split_search_s", "repair.split_search_calls", "repair.split_evals"],
        "moves": {"plan_storm": "op_wall_s", "wide_repair": "op_wall_s"},
        "flat": {"bulk_repair": "CR has no split", "ingest_scrub": "no repair"},
    },
    {
        "metrics": ["system.verify_s", "ec.encode_s", "ec.encode_calls", "ec.encode_mb",
                    "gf.mul_s", "gf.mul_calls", "gf.mul_mb"],
        "moves": {"wide_repair": "~47-53% of op_wall_s (post-repair verify)",
                  "ingest_scrub": "op_wall_s, system.ingest_mbps, system.scrub_mbps"},
        "flat": {"plan_storm": "0 payload bytes", "bulk_repair": "verify off"},
    },
    {
        "metrics": ["system.agent_ops_s", "system.agent_ops", "gf.addmul_s", "gf.addmul_calls"],
        "moves": {"wide_repair": "op_wall_s (per-stripe executor)",
                  "ingest_scrub": "system.update_ops_s (parity deltas use GF.addmul)"},
        "flat": {"bulk_repair": "batched data plane", "plan_storm": "0 payload bytes"},
    },
    {
        "metrics": ["repair.batch_decode_s", "repair.batch_groups", "gf.backend_s",
                    "gf.backend_calls", "gf.backend_mb", "system.bus_bytes",
                    "system.bus_transfers", "repair.plan_cache_hit_ratio"],
        "moves": {"bulk_repair": "op_wall_s", "serve_storm": "degraded-read decodes"},
        "flat": {"plan_storm": "0 payload bytes"},
    },
    {
        "metrics": ["ec.decode_s", "ec.decode_calls", "ec.repair_matrix_s",
                    "ec.repair_matrix_calls", "gf.inv_s", "gf.inv_calls"],
        "moves": {"ingest_scrub": "system.degraded_read_mbps",
                  "bulk_repair": "op_wall_s (decode-plan inversion on cache misses)"},
        "flat": {"plan_storm": "0 payload bytes"},
    },
    {
        "metrics": ["workload.serve_self_s", "workload.ops", "workload.degraded_reads",
                    "workload.fast_path_reads", "sched.run_pending_self_s", "sched.waves",
                    "sched.eta_s"],
        "moves": {"serve_storm": "op_wall_s"},
        "flat": {"wide_repair": "0 calls", "bulk_repair": "0 calls", "plan_storm": "0 calls",
                 "ingest_scrub": "0 calls"},
    },
    {
        "metrics": ["repair.plan_build_s", "repair.plans", "repair.validate_s"],
        "moves": {"plan_storm": "op_wall_s", "wide_repair": "op_wall_s",
                  "bulk_repair": "op_wall_s"},
        "flat": {"ingest_scrub": "no repair"},
    },
    {
        "metrics": ["system.repair_self_s", "system.plan_repair_self_s", "system.write_self_s",
                    "system.update_self_s", "system.scrub_self_s", "system.read_self_s"],
        "moves": {"wide_repair": "repair", "bulk_repair": "repair", "plan_storm": "plan_repair",
                  "ingest_scrub": "write/update/scrub/read"},
        "flat": {},
    },
    {
        "metrics": ["system.ingest_mbps", "system.update_ops_s", "system.scrub_mbps",
                    "system.degraded_read_mbps"],
        "moves": {"ingest_scrub": "the stages op_wall_s sums"},
        "flat": {"wide_repair": "not measured", "bulk_repair": "not measured",
                 "plan_storm": "not measured", "serve_storm": "not measured"},
    },
    {
        # simulated clock: changes only when planning *decisions* change
        "metrics": ["simnet.makespan_sim_s", "workload.read_p95_sim_s",
                    "workload.max_rate_ok_ops_s"],
        "moves": {},
        "flat": {"wide_repair": "host-only changes", "bulk_repair": "host-only changes",
                 "plan_storm": "host-only changes", "serve_storm": "host-only changes"},
    },
    {
        # these qualify the trace itself
        "metrics": ["trace.overhead_ratio", "trace.coverage_ratio"],
        "moves": {},
        "flat": {},
    },
]
