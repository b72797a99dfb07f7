"""Observability invariants: conservation, nesting, and bit-exactness.

The three guarantees ISSUE-level acceptance rests on:

* **byte conservation** — the sum of ``transfer`` span byte args equals
  :meth:`DataBus.total_bytes` exactly (every metered copy produced exactly
  one span, and nothing else did);
* **well-formedness** — every span closes, and ops-domain spans are
  properly nested per actor, even through fault/retry/abort paths;
* **zero observer effect** — a run with a session attached is byte- and
  value-identical to the same run without one (wall-clock compute seconds
  excepted: they are real time and differ run to run by nature).
"""

import json

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.faults.schedule import FaultSchedule
from repro.obs import Observability, OPS_DOMAIN, SIM_DOMAIN
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest

K, M, BLOCK_BYTES = 4, 2, 8192


def _build():
    """The pinned fixture from test_metering_regression: fully deterministic."""
    coord = Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(12)]),
        RSCode(K, M),
        block_bytes=BLOCK_BYTES,
        block_size_mb=16.0,
        rng=1234,
        heartbeat_timeout=5.0,
    )
    for j in range(4):
        coord.add_spare(Node(12 + j, 100.0, 100.0))
    data = np.random.default_rng(99).integers(0, 256, size=65_536, dtype=np.uint8).tobytes()
    coord.write("f", data)
    return coord, data


def _crash_two(coord):
    stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
    for v in stripe0.placement[:2]:
        coord.crash_node(v)


def _schedule():
    return FaultSchedule.from_tuples(
        [
            (0.0, "kill", 2),
            (0.5, "drop", 5),
            (1.0, "flap", 6, 2.0),
            (1.5, "delay", 7, 0.8),
        ]
    )


# Deterministic RepairResult fields (everything except wall-clock
# compute_s_total) ...
_RESULT_FIELDS = [
    "stripes_repaired", "blocks_recovered", "makespan_s",
    "bytes_moved", "bytes_on_wire_mb_model", "per_stripe_transfer_s",
    "replacements",
]
# ... and every FaultRepairReport field (events_fired's dataclass
# instances compare fine).
_FAULT_REPORT_FIELDS = [
    "dead_nodes", "rounds", "attempts", "replans", "retries", "drops",
    "delay_s", "backoff_s", "detections", "events_fired",
    "executed_transfer_bytes", "wasted_transfer_bytes", "sim_bytes_mb",
]


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr"])
def test_disabled_hooks_are_bit_exact(scheme):
    """An attached session must not change a healthy repair's outputs at all."""
    c1, data = _build()
    _crash_two(c1)
    r1 = c1.repair(RepairRequest(scheme=scheme))

    c2, _ = _build()
    _crash_two(c2)
    Observability().attach(c2)
    r2 = c2.repair(RepairRequest(scheme=scheme))

    for f in _RESULT_FIELDS:
        assert getattr(r1, f) == getattr(r2, f), f
    assert c1.cluster.dead_ids() == c2.cluster.dead_ids()
    assert c1.bus.total_bytes() == c2.bus.total_bytes()
    assert c1.bus.sent_bytes == c2.bus.sent_bytes
    assert c1.bus.received_bytes == c2.bus.received_bytes
    assert c1.bus.transfer_count == c2.bus.transfer_count
    assert c2.read("f") == data


def test_disabled_hooks_are_bit_exact_under_faults():
    """Same guarantee through the fault runtime's retry/replan machinery."""
    c1, data = _build()
    r1 = c1.repair(RepairRequest(faults=_schedule(), scheme="hmbr"))

    c2, _ = _build()
    Observability().attach(c2)
    r2 = c2.repair(RepairRequest(faults=_schedule(), scheme="hmbr"))

    for f in _RESULT_FIELDS:
        assert getattr(r1, f) == getattr(r2, f), f
    for f in _FAULT_REPORT_FIELDS:
        assert getattr(r1.report, f) == getattr(r2.report, f), f
    assert c1.bus.total_bytes() == c2.bus.total_bytes()
    assert c2.read("f") == data


def test_disabled_hooks_are_bit_exact_on_a_degenerate_split_round():
    """A split round with stripes at p = 0, p = 1 and in between is timed by
    the run its split search kept, attached or not; the attached session
    draws its sim spans from that run, one per planned (non-empty) task."""
    from tests.test_repair_refraction import _wide_system

    c1, data = _wide_system(8)
    r1 = c1.repair(RepairRequest())

    c2, _ = _wide_system(8)
    obs = Observability().attach(c2)
    r2 = c2.repair(RepairRequest())

    for f in _RESULT_FIELDS:
        assert getattr(r1, f) == getattr(r2, f), f
    assert c1.bus.sent_bytes == c2.bus.sent_bytes
    assert c1.bus.received_bytes == c2.bus.received_bytes
    assert c1.bus.transfer_count == c2.bus.transfer_count
    assert c2.read("f") == data

    (root,) = [s for s in obs.tracer.find(domain=SIM_DOMAIN) if s.cat == "sim"]
    tasks = obs.tracer.children_of(root)
    assert root.args["makespan"] == root.t1 == r2.makespan_s
    assert root.args["tasks"] == len(tasks) and all(s.args["size_mb"] > 0 for s in tasks)
    finish: dict[int, float] = {}
    for s in tasks:
        sid = int(s.name.split(":", 1)[0][1:])
        finish[sid] = max(finish.get(sid, 0.0), s.t1)
    assert finish == r2.per_stripe_transfer_s


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr"])
def test_transfer_spans_conserve_bus_bytes(scheme):
    coord, _ = _build()
    obs = Observability().attach(coord)
    _crash_two(coord)
    coord.repair(RepairRequest(scheme=scheme))

    spans = obs.tracer.find(cat="transfer", domain=OPS_DOMAIN)
    assert spans, "repair produced no transfer spans"
    assert sum(s.args["bytes"] for s in spans) == coord.bus.total_bytes()
    assert len(spans) == coord.bus.transfer_count
    # the metrics see the same totals
    snap = obs.metrics.snapshot()
    assert snap["counters"]["bus.bytes"] == coord.bus.total_bytes()
    assert snap["counters"]["bus.transfers"] == coord.bus.transfer_count


def test_transfer_spans_conserve_bus_bytes_under_faults():
    coord, _ = _build()
    obs = Observability().attach(coord)
    coord.repair(RepairRequest(faults=_schedule(), scheme="hmbr"))

    spans = obs.tracer.find(cat="transfer", domain=OPS_DOMAIN)
    assert sum(s.args["bytes"] for s in spans) == coord.bus.total_bytes()


def test_compute_spans_match_agent_meters_exactly():
    """Per node, summed compute-span seconds equal Agent.compute_seconds.

    Each hook call carries exactly the ``dt`` the agent just accrued, and
    left-to-right summation reproduces the agent's own accumulation — so
    the match is bit-exact, not approximate.
    """
    coord, _ = _build()
    obs = Observability().attach(coord)
    _crash_two(coord)
    coord.repair(RepairRequest(scheme="hmbr"))

    by_node: dict[int, float] = {}
    for s in obs.tracer.find(cat="compute", domain=OPS_DOMAIN):
        by_node[s.args["node"]] = by_node.get(s.args["node"], 0.0) + s.args["seconds"]
    metered = {i: a.compute_seconds for i, a in coord.agents.items() if a.compute_seconds > 0}
    assert by_node == metered


def test_trace_is_well_formed_and_nested():
    coord, _ = _build()
    obs = Observability().attach(coord)
    _crash_two(coord)
    coord.repair(RepairRequest(scheme="hmbr"))

    t = obs.tracer
    t.validate()  # closure + per-actor nesting
    roots = t.find(cat="repair")
    assert len(roots) == 1
    root = roots[0]
    # the structural children hang off the repair root
    kids = {s.cat for s in t.children_of(root)}
    assert "plan" in kids and "dispatch" in kids
    # sim-domain spans exist and carry the simulator's makespan
    sim_roots = [s for s in t.find(domain=SIM_DOMAIN) if s.cat == "sim"]
    assert len(sim_roots) == 1
    assert sim_roots[0].args["makespan"] == pytest.approx(sim_roots[0].t1)


def test_trace_is_well_formed_under_faults():
    coord, _ = _build()
    obs = Observability().attach(coord)
    coord.repair(RepairRequest(faults=_schedule(), scheme="hmbr"))

    t = obs.tracer
    t.validate()
    root = t.find(cat="repair")[0]
    assert root.name == "repair-with-faults"
    attempts = t.find(cat="attempt")
    assert attempts and all("outcome" in s.args for s in attempts)
    assert {s.args["kind"] for s in t.find(cat="fault")} == {"kill", "drop", "flap", "delay"}


def test_chrome_trace_structure(tmp_path):
    coord, _ = _build()
    obs = Observability().attach(coord)
    _crash_two(coord)
    coord.repair(RepairRequest(scheme="hmbr"))

    path = tmp_path / "trace.json"
    obs.tracer.write_chrome_trace(path)
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]

    xs = [e for e in events if e["ph"] == "X"]
    begins = [e for e in events if e["ph"] == "b"]
    ends = [e for e in events if e["ph"] == "e"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(events) == len(xs) + len(begins) + len(ends) + len(metas)

    # ops spans are complete events on pid 1; sim spans balanced b/e on pid 2
    assert xs and all(e["pid"] == 1 and e["dur"] >= 0 for e in xs)
    assert begins and all(e["pid"] == 2 for e in begins + ends)
    assert sorted(e["id"] for e in begins) == sorted(e["id"] for e in ends)
    # both processes are named for the viewer
    names = {e["args"]["name"] for e in metas if e["name"] == "process_name"}
    assert names == {"data-plane", "fluid-sim"}


def test_export_refuses_open_spans():
    from repro.obs import Tracer, to_chrome_trace

    t = Tracer()
    t.begin("open", actor="a")
    with pytest.raises(ValueError, match="open span"):
        to_chrome_trace(t)


def test_spans_jsonl_round_trips(tmp_path):
    coord, _ = _build()
    obs = Observability().attach(coord)
    _crash_two(coord)
    coord.repair(RepairRequest(scheme="cr"))

    path = tmp_path / "spans.jsonl"
    obs.tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(obs.tracer.spans)
    by_id = {r["span_id"]: r for r in rows}
    for r in rows:
        if r["parent_id"] is not None:
            assert r["parent_id"] in by_id


def test_attach_detach_semantics():
    coord, _ = _build()
    obs = Observability()
    assert obs.attach(coord) is obs
    assert obs.attach(coord) is obs  # idempotent for the same session
    with pytest.raises(RuntimeError, match="already attached"):
        Observability().attach(coord)
    obs.detach(coord)
    assert coord.obs is None
    assert coord.bus.obs_hook is None
    assert all(a.obs_hook is None for a in coord.agents.values())
    Observability().detach(coord)  # detaching a never-attached session: no-op
    # after detach a new session may attach
    Observability().attach(coord)


def test_spares_added_after_attach_are_hooked():
    coord, _ = _build()
    obs = Observability().attach(coord)
    coord.add_spare(Node(40, 100.0, 100.0))
    assert coord.agents[40].obs_hook is not None
    obs.detach(coord)
    assert coord.agents[40].obs_hook is None


# ------------------------------------------------------------------ #
# the serving plane holds the same three guarantees (ISSUE 6)
# ------------------------------------------------------------------ #
from repro.workload import ServingPlane, WorkloadSpec  # noqa: E402

_SERVE_SPEC = WorkloadSpec(
    n_objects=5, object_bytes=2 * K * BLOCK_BYTES, duration_s=5.0,
    rate_ops_s=6.0, read_fraction=0.85, write_bytes=128, seed=777,
)


def _build_serving(kill=0):
    """A fresh provisioned serving plane (same pinned cluster as _build)."""
    coord, _ = _build()
    plane = ServingPlane(coord, _SERVE_SPEC)
    plane.provision()
    if kill:
        sid0 = coord.files[_SERVE_SPEC.object_name(0)][0][0]
        stripe = next(s for s in coord.layout if s.stripe_id == sid0)
        for v in stripe.placement[:kill]:
            coord.crash_node(v)
    return coord, plane


def test_serving_foreground_bytes_conserve_on_bus():
    """Healthy serving: foreground bytes == bus delta == transfer-span sum."""
    coord, plane = _build_serving()
    before = coord.bus.total_bytes()
    obs = Observability().attach(coord)
    res = plane.run()
    assert res.foreground_bytes == res.bus_bytes_delta
    assert res.bus_bytes_delta == coord.bus.total_bytes() - before
    spans = obs.tracer.find(cat="transfer", domain=OPS_DOMAIN)
    assert sum(s.args["bytes"] for s in spans) == res.bus_bytes_delta


def test_serving_merged_wave_conserves_bytes():
    """foreground + repair bytes == the merged run's bus delta, exactly.

    The repair share comes from a twin system running the identical storm
    with no foreground traffic (the data planes are independent, so its
    bus delta *is* the repair's share of the merged run).
    """
    storm = (RepairRequest(scheme="hmbr", priority="background"),)
    c1, p1 = _build_serving(kill=2)
    res = p1.run(repair=storm)
    assert res.degraded_reads > 0

    c2, _ = _build_serving(kill=2)  # same seed -> same placement, same kills
    before = c2.bus.total_bytes()
    c2.sched.submit(scheme="hmbr", priority="background")
    c2.sched.run_pending()
    repair_share = c2.bus.total_bytes() - before

    assert res.bus_bytes_delta == res.foreground_bytes + repair_share
    assert repair_share > 0


def test_serving_attached_session_is_value_identical():
    """Percentiles, outcomes, and bytes match bit-exactly attached/detached."""
    storm = (RepairRequest(scheme="hmbr", priority="background"),)
    _, p1 = _build_serving(kill=2)
    r1 = p1.run(repair=storm)

    c2, p2 = _build_serving(kill=2)
    obs = Observability().attach(c2)
    r2 = p2.run(repair=storm)

    assert r1.summary() == r2.summary()
    assert r1.outcomes == r2.outcomes
    assert (r1.foreground_bytes, r1.bus_bytes_delta) == (
        r2.foreground_bytes,
        r2.bus_bytes_delta,
    )
    # and the attached session's histograms reproduce the result tables
    snap = obs.metrics.snapshot()
    assert snap["histograms"]["workload.read_latency_s"] == r2.latency
    assert snap["histograms"]["workload.degraded_read_latency_s"] == r2.latency_degraded
    assert snap["counters"]["workload.degraded_reads"] == r2.degraded_reads
    assert snap["counters"]["workload.foreground_bytes"] == r2.foreground_bytes


def test_serving_trace_is_well_formed_in_both_domains():
    coord, plane = _build_serving(kill=2)
    obs = Observability().attach(coord)
    res = plane.run(
        repair=(RepairRequest(scheme="hmbr", priority="background"),)
    )

    t = obs.tracer
    t.validate()
    roots = [s for s in t.find(cat="workload", domain=OPS_DOMAIN) if s.name == "workload.run"]
    assert len(roots) == 1
    all_ops = t.find(cat="workload", domain=OPS_DOMAIN)
    op_spans = [s for s in all_ops if s.name.startswith("workload.op:")]
    assert len(op_spans) == len(res.outcomes)
    # every degraded stripe decode emits its ops-domain chunk spans
    chunk_spans = [s for s in all_ops if s.name.startswith("workload.chunk:")]
    assert len(chunk_spans) >= res.degraded_reads
    # sim-domain timeline: one span per op, spanning arrival -> finish
    sim = t.find(cat="workload.sim", domain=SIM_DOMAIN)
    sim_ops = [s for s in sim if s.name.startswith("workload.op:")]
    assert len(sim_ops) == len(res.outcomes)
    by_op = {s.args["op"]: s for s in sim_ops}
    for o in res.outcomes:
        span = by_op[o.op_id]
        assert span.t0 == o.t_s
        assert span.t1 == max(o.finish_s, o.t_s)
    # sim-domain chunk spans mirror the modeled decode occupancy: one per
    # degraded stripe read per chunk (chunks=1 here), inside the op window
    sim_chunks = [s for s in sim if s.name.startswith("workload.chunk:")]
    assert len(sim_chunks) == sum(
        o.degraded_stripes for o in res.outcomes if o.ok
    )
    for s in sim_chunks:
        parent = by_op[s.args["op"]]
        assert parent.t0 <= s.t0 <= s.t1 <= parent.t1 + 1e-9
