#!/usr/bin/env python
"""Trace one HMBR multi-block repair under faults, end to end.

A walkthrough of :mod:`repro.obs`: build a small (4, 2) cluster, write a
file, crash two block owners, attach an observability session, run a
fault-aware HMBR repair against a chaos schedule, and export

* a Chrome-trace JSON timeline — open it at https://ui.perfetto.dev or in
  ``chrome://tracing`` (both read the file as-is),
* a spans JSONL and a metrics JSONL for ``jq``/pandas analysis,

then reconcile the trace against the system's own accounting: the sum of
transfer-span bytes must equal what the data bus metered, exactly.

Run:  python examples/trace_a_repair.py
"""

import json
import os
import tempfile

import numpy as np

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.faults.schedule import FaultSchedule
from repro.obs import Observability
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def build_system() -> Coordinator:
    """A 12-node (4, 2) cluster with 4 spares and one striped file."""
    coord = Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(12)]),
        RSCode(4, 2),
        block_bytes=8192,
        block_size_mb=64.0,
        rng=1234,
        heartbeat_timeout=5.0,
    )
    for j in range(4):
        coord.add_spare(Node(12 + j, 100.0, 100.0))
    data = np.random.default_rng(7).integers(0, 256, size=262_144, dtype=np.uint8)
    coord.write("dataset", data.tobytes())
    return coord


def main() -> None:
    coord = build_system()
    obs = Observability().attach(coord)

    # two owners of stripe 0 die up front -> a true multi-block repair;
    # the schedule then harasses the repair while it runs
    stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
    for victim in stripe0.placement[:2]:
        coord.crash_node(victim)
    schedule = FaultSchedule.from_tuples(
        [
            (0.5, "drop", stripe0.placement[2]),   # one transfer dropped
            (1.0, "flap", stripe0.placement[3], 2.0),  # helper flaps for 2 s
            (1.5, "delay", stripe0.placement[4], 0.8),  # slow link
        ]
    )
    res = coord.repair(RepairRequest(scheme="hmbr", faults=schedule))

    print("fault-aware repair finished")
    print(f"  stripes repaired : {res.stripes_repaired}")
    print(f"  blocks recovered : {res.blocks_recovered}")
    print(f"  rounds / retries : {res.report.rounds} / {res.report.retries}")
    print(f"  simulated T_t    : {res.makespan_s:.2f} s")

    # ---- the trace must conserve bytes against the bus, exactly
    tracer = obs.tracer
    tracer.validate()
    span_bytes = sum(s.args["bytes"] for s in tracer.find(cat="transfer"))
    bus_bytes = coord.bus.total_bytes()
    assert span_bytes == bus_bytes, (span_bytes, bus_bytes)
    print(f"\ntrace: {len(tracer.spans)} spans; transfer spans carry "
          f"{span_bytes} B == bus total {bus_bytes} B")

    # ---- export all three artifacts
    out = tempfile.mkdtemp(prefix="repro-trace-")
    trace_path = os.path.join(out, "repair.trace.json")
    spans_path = os.path.join(out, "spans.jsonl")
    metrics_path = os.path.join(out, "metrics.jsonl")
    tracer.write_chrome_trace(trace_path)
    tracer.write_jsonl(spans_path)
    obs.metrics.write_jsonl(metrics_path)

    n_events = len(json.load(open(trace_path))["traceEvents"])
    print(f"\nwrote {trace_path} ({n_events} trace events)")
    print(f"wrote {spans_path}")
    print(f"wrote {metrics_path}")
    print("open the .trace.json at https://ui.perfetto.dev (or chrome://tracing)")

    print("\nselected metrics:")
    snap = obs.metrics.snapshot()
    for name in ("bus.bytes", "bus.transfers", "faults.fired",
                 "heartbeat.misses", "repair.retries", "repair.blocks_recovered"):
        if name in snap["counters"]:
            print(f"  {name:24s} {snap['counters'][name]:g}")


if __name__ == "__main__":
    main()
