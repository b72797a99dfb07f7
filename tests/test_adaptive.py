"""Property suite for adaptive re-planning (ISSUE 10 tentpole).

Pins the three contracts the adaptive layer must keep:

* **quiet no-op** — on a quiet network the adaptive run is bit-exact with
  the static run (same stored bytes, same data-plane bytes) and its
  modeled makespan matches within 1e-9;
* **conservation** — re-planned repairs still recover every block, the
  range journal tiles [0, 1) exactly once per stripe, and already-moved
  (journaled) ranges are never re-sent;
* **adaptivity pays** — under a drift-heavy trace the adaptive run beats
  the static plan simulated on the same trace.
"""

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveEngine,
    AdaptiveEntry,
    OverlapError,
    RangeJournal,
)
from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.repair import ADAPTIVE_SCHEMES
from repro.simnet import NetworkTrace
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def make_system(n_data=18, n_spare=4, k=4, m=2, seed=0, block_size_mb=16.0):
    ds = make_wld(n_data + n_spare, "WLD-4x", seed=seed)
    nodes = [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data)]
    coord = Coordinator(Cluster(nodes), RSCode(k, m), block_bytes=2048,
                        block_size_mb=block_size_mb, rng=seed)
    for j in range(n_spare):
        i = n_data + j
        coord.add_spare(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])))
    return coord


def payload(nbytes, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def collapse_trace(first=2, last=12, at=0.6, factor=20.0):
    """Mid-repair bandwidth collapse on a slab of survivors."""
    return NetworkTrace.degrade(list(range(first, last)), at_time=at, factor=factor)


# ------------------------------------------------------------------ #
# range journal
# ------------------------------------------------------------------ #
def test_journal_commit_and_completion():
    j = RangeJournal()
    j.commit("s0", 0.0, 0.4, round_index=0, scheme="hmbr", piece_id="a")
    assert not j.is_complete("s0")
    assert j.covered("s0") == pytest.approx(0.4)
    j.commit("s0", 0.4, 1.0, round_index=1, scheme="cr", piece_id="b")
    assert j.is_complete("s0")
    assert j.covered("s0") == pytest.approx(1.0)
    assert [r.piece_id for r in j.ranges("s0")] == ["a", "b"]


def test_journal_rejects_overlap_and_bad_ranges():
    j = RangeJournal()
    j.commit("s0", 0.2, 0.6, round_index=0, scheme="ir", piece_id="a")
    with pytest.raises(OverlapError):
        j.commit("s0", 0.5, 0.9, round_index=1, scheme="ir", piece_id="b")
    with pytest.raises(OverlapError):
        j.commit("s0", 0.0, 0.21, round_index=1, scheme="ir", piece_id="c")
    with pytest.raises(ValueError):
        j.commit("s0", -0.1, 0.1, round_index=0, scheme="ir", piece_id="d")
    with pytest.raises(ValueError):
        j.commit("s0", 0.9, 0.9, round_index=0, scheme="ir", piece_id="e")
    # touching endpoints are fine
    j.commit("s0", 0.6, 1.0, round_index=1, scheme="cr", piece_id="f")
    j.commit("s0", 0.0, 0.2, round_index=2, scheme="cr", piece_id="g")
    assert j.is_complete("s0")


# ------------------------------------------------------------------ #
# quiet network: adaptivity is a bit-exact no-op
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("scheme", ADAPTIVE_SCHEMES)
def test_quiet_network_adaptive_is_noop(scheme):
    data = payload(60_000, seed=3)

    c1 = make_system()
    c1.write("f", data)
    c1.crash_node(0)
    c1.crash_node(1)
    static = c1.repair(RepairRequest(scheme=scheme))

    c2 = make_system()
    c2.write("f", data)
    c2.crash_node(0)
    c2.crash_node(1)
    adaptive = c2.repair(RepairRequest(scheme=scheme, adaptive=True))

    assert c1.read("f") == c2.read("f") == data
    # every repaired block is bit-identical on both systems
    from repro.ec.stripe import block_name

    for sid, stripe in enumerate(c1.layout):
        other = next(s for s in c2.layout if s.stripe_id == stripe.stripe_id)
        for b, (n1, n2) in enumerate(zip(stripe.placement, other.placement)):
            name = block_name(stripe.stripe_id, b)
            s1, s2 = c1.agents[n1].store, c2.agents[n2].store
            assert s1.has(name) == s2.has(name), (sid, b)
            if s1.has(name):
                assert np.array_equal(s1.get(name), s2.get(name)), (sid, b)
    assert adaptive.makespan_s == pytest.approx(static.makespan_s, abs=1e-9)
    assert adaptive.bytes_moved == static.bytes_moved
    assert adaptive.report.replans == 0
    assert adaptive.report.n_rounds == 1
    assert adaptive.report.wasted_mb == 0.0


# ------------------------------------------------------------------ #
# drift-heavy trace: adaptivity pays and conserves bytes
# ------------------------------------------------------------------ #
def test_adaptive_beats_static_under_collapse():
    data = payload(200_000, seed=4)
    trace = collapse_trace()

    c1 = make_system(block_size_mb=64.0)
    c1.write("f", data)
    c1.crash_node(0)
    static = c1.repair(RepairRequest(scheme="hmbr", network=trace))

    c2 = make_system(block_size_mb=64.0)
    c2.write("f", data)
    c2.crash_node(0)
    adaptive = c2.repair(RepairRequest(scheme="hmbr", network=trace, adaptive=True))

    assert c1.read("f") == c2.read("f") == data
    assert adaptive.report.replans >= 1
    assert adaptive.makespan_s < static.makespan_s


def test_a_drift_watched_round_simulates_its_tasks_twice(monkeypatch):
    """One observed run, paused at boundaries and committed from, plus one
    quiet reference, both over the round's one compiled problem; the only
    other fluid runs (split search, candidate scoring) are plain ones."""
    from repro.simnet.fluid import FluidSimulator

    starts, runs = [], []
    real_start, real_run = FluidSimulator.start, FluidSimulator.run

    def start(self, tasks, *args, **kwargs):
        starts.append(tasks)
        return real_start(self, tasks, *args, **kwargs)

    def run(self, tasks, *args, **kwargs):
        runs.append(kwargs)
        return real_run(self, tasks, *args, **kwargs)

    monkeypatch.setattr(FluidSimulator, "start", start)
    monkeypatch.setattr(FluidSimulator, "run", run)
    c = make_system(block_size_mb=64.0)
    c.write("f", payload(60_000, seed=4))
    c.crash_node(0)
    report = c.repair(RepairRequest(scheme="hmbr", network=collapse_trace(), adaptive=True)).report

    # round 0 is watched and cut at the collapse; round 1 sees no event left
    assert [rd.boundary_s for rd in report.rounds] == [0.6, None]
    assert len(starts) == 3 and starts[0] is starts[1] is not starts[2]
    assert runs and all(
        not kw.get("record_trace") and kw.get("horizon_s") is None for kw in runs
    )


def test_adaptive_journal_tiles_unit_interval():
    data = payload(200_000, seed=5)
    c = make_system(block_size_mb=64.0)
    c.write("f", data)
    c.crash_node(0)
    res = c.repair(RepairRequest(scheme="hmbr", network=collapse_trace(), adaptive=True))
    assert c.read("f") == data

    engine_report = res.report
    journal = engine_report.journal
    assert journal.keys()
    for key in journal.keys():
        assert journal.is_complete(key)
        total = sum(r.width for r in journal.ranges(key))
        assert total == pytest.approx(1.0, abs=1e-9)
    # pieces carry the same partition the journal recorded
    for key in journal.keys():
        widths = sorted((p.lo, p.hi) for p in engine_report.pieces[key])
        prev_hi = 0.0
        for lo, hi in widths:
            assert lo == pytest.approx(prev_hi, abs=1e-9)
            prev_hi = hi
        assert prev_hi == pytest.approx(1.0, abs=1e-9)
    assert engine_report.wasted_mb >= 0.0


def test_adaptive_execution_journals_complete():
    """Every stripe's op journal finishes at len(ops): resumable, no gaps."""
    from repro.adaptive import AdaptiveRuntime

    data = payload(120_000, seed=6)
    coord = make_system(block_size_mb=64.0)
    coord.write("f", data)
    coord.crash_node(0)
    runtime = AdaptiveRuntime(
        coord, RepairRequest(adaptive=True, network=collapse_trace())
    )
    report = runtime.repair()
    assert coord.read("f") == data
    assert report.blocks_recovered > 0
    assert runtime.journals
    for sid, journal in runtime.journals.items():
        assert journal.completed > 0


def test_resumed_ops_never_resend_journaled_transfers():
    """The executor machinery adaptive reuses counts each transfer once."""
    from repro.system.agent import ExecutionJournal
    from repro.system.agent import run_plan_ops

    def build():
        coord = make_system()
        coord.write("f", payload(60_000, seed=7))
        coord.crash_node(0)
        dead = coord.cluster.dead_ids()
        affected = coord.layout.stripes_with_failures(dead)
        return coord, coord.plan_round("hmbr", affected).plans[0][1].ops

    # uninterrupted reference
    coord_a, ops_a = build()
    bus_a = coord_a.bus
    base = bus_a.transfer_count
    run_plan_ops(ops_a, coord_a.agents, bus_a, journal=ExecutionJournal())
    want = bus_a.transfer_count - base

    # interrupted after half the ops, then resumed with the same journal
    coord_b, ops_b = build()
    bus_b = coord_b.bus
    base = bus_b.transfer_count
    journal = ExecutionJournal()
    run_plan_ops(ops_b[: len(ops_b) // 2], coord_b.agents, bus_b, journal=journal)
    assert journal.completed == len(ops_b) // 2
    run_plan_ops(ops_b, coord_b.agents, bus_b, journal=journal)
    assert journal.completed == len(ops_b)
    assert bus_b.transfer_count - base == want


# ------------------------------------------------------------------ #
# request validation + engine API
# ------------------------------------------------------------------ #
def test_adaptive_request_validation():
    with pytest.raises(ValueError):
        RepairRequest(adaptive=True, scheme="rack-hmbr")
    with pytest.raises(ValueError):
        RepairRequest(adaptive=True, drift_threshold=0.0)
    with pytest.raises(ValueError):
        RepairRequest(adaptive=True, max_replans=-1)
    with pytest.raises(ValueError):
        RepairRequest(adaptive=True, priority="high")


def test_adaptive_config_validation():
    """The engine's two knobs are validated where they are set."""
    cluster = Cluster.homogeneous(4, 100.0)
    with pytest.raises(ValueError, match="drift_threshold"):
        AdaptiveEngine(cluster, drift_threshold=0.0)
    with pytest.raises(ValueError, match="max_replans"):
        AdaptiveEngine(cluster, max_replans=-1)


def test_engine_rejects_unknown_scheme():
    from repro.experiments.common import build_scenario, plan_for

    sc = build_scenario(8, 4, 2, wld="WLD-2x", seed=1)
    plan = plan_for(sc.ctx, "cr")
    engine = AdaptiveEngine(sc.ctx.cluster)
    with pytest.raises(ValueError):
        engine.run([AdaptiveEntry(key="s0", ctx=sc.ctx, scheme="rack-hmbr", plan=plan)])


def test_mlf_scheme_routes_through_facade():
    data = payload(60_000, seed=8)
    coord = make_system()
    coord.write("f", data)
    coord.crash_node(0)
    res = coord.repair(RepairRequest(scheme="mlf"))
    assert [job.scheme for job in res.jobs] == ["mlf"]
    assert coord.read("f") == data
