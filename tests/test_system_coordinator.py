"""End-to-end coordinator tests: write / read / fail / detect / repair."""

import numpy as np
import pytest

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import block_name
from repro.faults.schedule import FaultSchedule
from repro.gf.field import gf8
from repro.simnet import NetworkTrace
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def make_system(
    n_data=18, n_spare=4, k=4, m=2, seed=0, rack_size=None, block_bytes=2048, field=gf8
):
    ds = make_wld(n_data + n_spare, "WLD-4x", seed=seed)
    nodes = []
    for i in range(n_data):
        rack = i // rack_size if rack_size else 0
        nodes.append(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i]), rack=rack))
    cluster = Cluster(nodes)
    coord = Coordinator(
        cluster, RSCode(k, m, field), block_bytes=block_bytes, block_size_mb=16.0, rng=seed
    )
    for j in range(n_spare):
        i = n_data + j
        rack = (i // rack_size) if rack_size else 0
        coord.add_spare(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i]), rack=rack))
    return coord


def payload(nbytes, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def test_write_read_roundtrip():
    coord = make_system()
    data = payload(30_000)
    receipt = coord.write("f1", data)
    assert receipt.nbytes == 30_000
    assert receipt.padded_bytes % (4 * 2048) == 0
    assert coord.read("f1") == data


def test_write_duplicate_name_rejected():
    coord = make_system()
    coord.write("f1", payload(100))
    with pytest.raises(KeyError):
        coord.write("f1", payload(100))
    with pytest.raises(KeyError):
        coord.read("nope")


def test_write_without_enough_data_nodes_is_refused_before_any_state_changes():
    """`write` and `place_stripes` refuse a too-narrow system the same way."""
    coord = make_system(n_data=6)
    coord.write("kept", payload(100))
    coord.crash_node(0)
    files, placements = dict(coord.files), [list(s.placement) for s in coord.layout]
    stored = {i: len(a.store) for i, a in coord.agents.items()}
    for refused in (
        lambda: coord.write("f1", payload(100)),
        lambda: coord.place_stripes(1),
    ):
        with pytest.raises(ValueError, match="5 data nodes cannot host width-6 stripes"):
            refused()
    assert coord.files == files
    assert [list(s.placement) for s in coord.layout] == placements
    assert {i: len(a.store) for i, a in coord.agents.items()} == stored
    assert coord.layout.next_id() == len(placements)  # no stripe id was consumed


def test_write_allocates_what_it_stores_plus_under_two_stripes():
    """``write`` encodes stripe-sized views of the caller's buffer and pads
    only the short tail stripe: no zero-filled copy of the whole file sits
    beside the stored blocks while it runs."""
    import tracemalloc

    coord = make_system(block_bytes=64 * 1024)
    data = payload(30 * 4 * 64 * 1024 + 1000)  # 30 full stripes and a short tail
    tracemalloc.start()
    try:
        receipt = coord.write("f1", data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stripe_bytes = coord.code.n * coord.block_bytes
    stored = len(receipt.stripe_ids) * stripe_bytes
    assert len(receipt.stripe_ids) == 31
    assert peak < stored + 2 * stripe_bytes, (peak, stored)
    assert coord.read("f1") == data


def test_write_distributes_blocks_to_distinct_nodes():
    coord = make_system()
    coord.write("f1", payload(10_000))
    for stripe in coord.layout:
        assert len(set(stripe.placement)) == stripe.n
        assert all(n not in coord.spares for n in stripe.placement)


def test_degraded_read_within_m_failures():
    coord = make_system()
    data = payload(50_000, seed=1)
    coord.write("f1", data)
    coord.crash_node(0)
    coord.crash_node(1)
    assert coord.read("f1") == data


def test_read_fails_beyond_m_failures():
    coord = make_system(k=4, m=2)
    data = payload(8 * 2048, seed=2)  # exactly one stripe
    coord.write("f1", data)
    stripe = coord.layout.stripes[0]
    for node in stripe.placement[:3]:  # 3 > m = 2
        coord.crash_node(node)
    with pytest.raises(IOError):
        coord.read("f1")


@pytest.mark.parametrize(
    "nbytes",
    [0, 1, 2047, 2048, 4 * 2048 - 1, 4 * 2048, 4 * 2048 + 1, 3 * 4 * 2048, 30_001],
    ids=lambda n: f"{n}B",
)
def test_read_assembles_exactly_the_written_bytes(nbytes):
    """``read`` joins the block buffers in one pass: whatever the length is
    against the block (2048) and stripe (k * 2048) sizes, healthy and degraded
    reads return the written bytes — nothing of the padding, nothing short."""
    coord = make_system()
    data = payload(nbytes, seed=nbytes)
    coord.write("f1", data)
    assert coord.read("f1") == data
    dead = coord.layout.stripes[-1].placement[:2]  # two data blocks of the tail stripe
    for node in dead:
        coord.crash_node(node)
    got = coord.read("f1")
    assert type(got) is bytes and got == data
    coord.crash_node(coord.layout.stripes[-1].placement[2])  # 3 > m: unrecoverable
    with pytest.raises(IOError, match="unrecoverable"):
        coord.read("f1")


def test_read_does_not_alias_or_modify_the_stored_blocks():
    coord = make_system()
    data = payload(3 * 2048 + 5, seed=9)
    coord.write("f1", data)
    stored = {
        (n, name): agent.store.get(name).copy()
        for n, agent in coord.agents.items() for name in agent.store.names()
    }
    assert coord.read("f1") == coord.read("f1") == data
    for (n, name), before in stored.items():
        assert np.array_equal(coord.agents[n].store.get(name), before)


def test_heartbeat_failure_detection_flow():
    coord = make_system()
    coord.write("f1", payload(5_000))
    coord.beat_alive(0.0)
    coord.crash_node(3)
    coord.beat_alive(50.0)
    dead = coord.detect_failures(now=60.0)
    assert dead == [3]
    assert not coord.cluster[3].alive


@pytest.mark.parametrize("scheme", ["cr", "ir", "hmbr"])
def test_repair_restores_redundancy(scheme):
    coord = make_system(seed=3)
    data = payload(60_000, seed=3)
    coord.write("f1", data)
    coord.crash_node(0)  # crash_node marks the cluster node dead directly;
    coord.crash_node(1)  # heartbeat detection is covered in its own test
    report = coord.repair(RepairRequest(scheme=scheme))
    assert [job.scheme for job in report.jobs] == [scheme]
    assert report.blocks_recovered >= 1
    assert report.makespan_s > 0
    assert coord.read("f1") == data
    # repaired blocks now live on (previously) spare nodes
    for sid in report.stripes_repaired:
        stripe = next(s for s in coord.layout if s.stripe_id == sid)
        assert all(coord.agents[n].alive for n in stripe.placement)


def test_repair_is_idempotent():
    coord = make_system(seed=4)
    coord.write("f1", payload(20_000, seed=4))
    coord.crash_node(2)
    first = coord.repair(RepairRequest(scheme="hmbr"))
    second = coord.repair(RepairRequest(scheme="hmbr"))
    assert first.blocks_recovered >= 0
    assert second.blocks_recovered == 0
    assert second.stripes_repaired == []


def test_repair_unknown_scheme():
    coord = make_system()
    with pytest.raises(ValueError):
        coord.repair(RepairRequest(scheme="bogus"))


def test_repair_requires_enough_spares():
    coord = make_system(n_spare=1, seed=5)
    coord.write("f1", payload(120_000, seed=5))
    coord.crash_node(0)
    coord.crash_node(1)
    with pytest.raises(RuntimeError):
        coord.repair(RepairRequest())


def test_repair_after_rack_failure_with_rack_layout():
    coord = make_system(n_data=16, n_spare=4, rack_size=4, seed=6, k=4, m=2)
    data = payload(40_000, seed=6)
    coord.write("f1", data)
    # kill two nodes of one rack (within m = 2)
    coord.crash_node(0)
    coord.crash_node(1)
    report = coord.repair(RepairRequest(scheme="hmbr"))
    assert coord.read("f1") == data
    assert report.compute_s_total >= 0


def test_block_bytes_must_be_word_aligned():
    cluster = Cluster([Node(i, 100, 100) for i in range(8)])
    with pytest.raises(ValueError):
        Coordinator(cluster, RSCode(4, 2), block_bytes=1001)


@pytest.mark.parametrize("block", [1, 5], ids=["data", "parity"])
def test_scrub_reports_a_wrong_length_block_as_unhealthy(block):
    """A truncated stored block fails its stripe's verify with an
    ``AssertionError`` naming the stripe and the block, before any kernel
    runs; ``scrub`` reports that stripe, and only that stripe, unhealthy."""
    coord = make_system(block_bytes=64)
    coord.write("f", payload(3 * coord.code.k * 64))
    sid = coord.layout.stripes[1].stripe_id
    name = block_name(sid, block)
    agent = coord.agents[coord.layout[sid].placement[block]]
    agent.store_block(name, agent.read_block(name)[:-8].copy(), overwrite=True)
    with pytest.raises(AssertionError, match=f"stripe {sid} block {block} "):
        coord.verify_stripe(sid)
    assert coord.scrub() == {s.stripe_id: s.stripe_id != sid for s in coord.layout.stripes}


# --------------------------------------------------------------------- #
# a dispatch that raises must not leak scratch (it shadows stored blocks)
# --------------------------------------------------------------------- #
def _held_scratch(coord):
    return sum(len(agent.scratch) for agent in coord.agents.values())


def _one_stripe_down(seed):
    coord = make_system(seed=seed, block_bytes=64)
    coord.write("f", payload(coord.code.k * 64, seed=seed))
    coord.crash_node(coord.layout.stripes[0].placement[0])
    return coord


def test_failed_verify_leaves_no_scratch_behind():
    coord = _one_stripe_down(seed=51)
    survivor = coord.layout.stripes[0].placement[1]
    bad = coord.agents[survivor].read_block("s0000/b01").copy()
    bad[0] ^= 0xFF  # silent corruption
    coord.agents[survivor].store_block("s0000/b01", bad, overwrite=True)
    with pytest.raises(AssertionError, match="stripe 0"):
        coord.repair(RepairRequest())
    assert _held_scratch(coord) == 0


@pytest.mark.parametrize(
    "request_", [RepairRequest(), RepairRequest(adaptive=True)], ids=["plain", "adaptive"]
)
def test_bus_fault_mid_plan_leaves_no_scratch_behind(request_):
    coord = _one_stripe_down(seed=52)
    calls = []

    def hook(src, dst, nbytes):
        calls.append(src)
        if len(calls) == 3:
            raise ConnectionError("link down")

    coord.bus.fault_hook = hook
    with pytest.raises(ConnectionError):
        coord.repair(request_)
    assert _held_scratch(coord) == 0


def test_scratch_is_released_stripe_by_stripe():
    """At each commit only the committing stripe's buffers are in flight, and
    a finished round holds none: a round's peak memory is one stripe's."""
    coord = make_system(seed=54, block_bytes=64)
    coord.write("f", payload(4 * coord.code.k * 64, seed=54))
    coord.crash_node(coord.layout.stripes[0].placement[0])
    commit, seen = coord.commit_outputs, []

    def watching(sid, outputs, verify=True):
        held = {name for agent in coord.agents.values() for name in agent.scratch}
        assert held and all(f"s{sid:04d}" in name for name in held), (sid, held)
        seen.append(sid)
        commit(sid, outputs, verify)

    coord.commit_outputs = watching
    result = coord.repair(RepairRequest(scheme="cr"))
    assert len(seen) > 1 and seen == result.stripes_repaired
    assert _held_scratch(coord) == 0


def test_scheduled_fault_route_leaves_no_scratch_behind():
    from repro.faults.schedule import FaultSchedule

    coord = _one_stripe_down(seed=53)
    result = coord.repair([RepairRequest(faults=FaultSchedule.empty())])
    assert [job.state for job in result.jobs] == ["done"]
    assert _held_scratch(coord) == 0


# ------------------------------------------------------------------ #
# reference counting alone frees a coordinator
# ------------------------------------------------------------------ #
def _serve(coord):
    from repro.workload import ServeRequest, WorkloadSpec

    spec = WorkloadSpec(n_objects=2, object_bytes=2 * coord.code.k * 2048, duration_s=2.0,
                        rate_ops_s=4.0, seed=1)
    return coord.serve(ServeRequest(spec=spec, repair=(RepairRequest(),)))


def _serve_handing(refuse: bool):
    """A crashed system serves a storm with the fast path on: the estimate
    hands its rounds to the real wave, which takes one, or refuses it after
    an uplink changed.  Either way no handed round outlives the call."""

    def run(coord):
        import weakref

        from repro.sched.scheduler import RepairScheduler

        estimate, take = RepairScheduler.estimate_finish_s, RepairScheduler._take_round
        seen = {}

        def estimating(sched, requests):
            eta = estimate(sched, requests)
            seen["round"] = weakref.ref(eta.rounds[0].rnd)
            if refuse:
                sched.coord.cluster[sched.coord.layout.stripes[0].placement[1]].uplink /= 2
            return eta

        def taking(sched, *args):
            rnd = take(sched, *args)
            seen["taken"] = rnd is not None
            return rnd

        RepairScheduler.estimate_finish_s = estimating
        RepairScheduler._take_round = taking
        try:
            result = _serve(coord)
        finally:
            RepairScheduler.estimate_finish_s = estimate
            RepairScheduler._take_round = take
        assert seen["taken"] is not refuse
        assert seen["round"]() is None
        return result

    return run


def _crashed(call):
    def run(coord):
        coord.crash_node(coord.layout.stripes[0].placement[0])
        return call(coord)

    return run


def _plan_then_read_ops(coord):
    """Keep a metadata-only round and build its byte views after it: a
    deferred build holds frozen decisions, not the coordinator."""
    timing = coord.plan_repair("hmbr", commit=False)
    assert all(plan.ops for _, plan in timing.plans)
    return timing


def _custom_scheduler(coord):
    """The documented way to set an admission policy: assign a scheduler."""
    from repro.sched.scheduler import AdmissionPolicy, RepairScheduler

    coord.sched = RepairScheduler(coord, AdmissionPolicy(max_inflight_per_node=2))
    result = coord.repair([RepairRequest()])
    assert [job.state for job in result.jobs] == ["done"]
    return result


_FAULTS = FaultSchedule.random(
    seed=20230717, targets=list(range(8)), n_events=4, max_kills=1
)
_DEGRADE = NetworkTrace.degrade(range(2, 12), at_time=0.6, factor=20)

_ROUTES = {
    "write": lambda c: c.write("g", payload(3000, seed=2)),
    "read": lambda c: c.read("f"),
    "update": lambda c: c.update("f", 10, b"abc"),
    "scrub": lambda c: c.scrub(),
    **{
        f"repair-{scheme}-verify-{verify}": _crashed(
            lambda c, s=scheme, v=verify: c.repair(RepairRequest(scheme=s, verify=v))
        )
        for scheme in ("cr", "ir", "hmbr")
        for verify in (True, False)
    },
    "plan_repair": _crashed(lambda c: c.plan_repair("hmbr", commit=False)),
    "plan_repair-kept-ops-read": _crashed(_plan_then_read_ops),
    "plan_repair-commit": _crashed(lambda c: c.plan_repair("hmbr", commit=True)),
    "serve": _serve,
    "serve-storm-handed-round-taken": _crashed(_serve_handing(refuse=False)),
    "serve-storm-handed-round-refused": _crashed(_serve_handing(refuse=True)),
    "repair-list": _crashed(
        lambda c: c.repair([RepairRequest(priority="background"), RepairRequest()])
    ),
    "custom-policy-scheduler": _crashed(_custom_scheduler),
    "repair-faults": _crashed(lambda c: c.repair(RepairRequest(faults=_FAULTS))),
    "repair-faults-scheduled": _crashed(
        lambda c: c.repair(RepairRequest(faults=_FAULTS, priority="background"))
    ),
    "repair-network": _crashed(lambda c: c.repair(RepairRequest(network=_DEGRADE))),
    "repair-adaptive": _crashed(
        lambda c: c.repair(RepairRequest(adaptive=True, network=_DEGRADE))
    ),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_reference_counting_alone_frees_the_coordinator(route):
    """No call leaves a reference cycle through its coordinator: the last
    reference going frees the whole system at once, with the cycle
    collector off.  A cycle would keep a retired system's blocks alive
    until some later collection — through the next one's peak memory.
    What the call returns is kept: no result refers back to the system."""
    import gc
    import weakref

    coord = make_system(seed=61)
    coord.write("f", payload(6 * coord.code.k * 2048, seed=61))
    gc.collect()
    gc.disable()
    try:
        kept = _ROUTES[route](coord)
        ref = weakref.ref(coord)
        del coord
        assert ref() is None
        del kept
    finally:
        gc.enable()

