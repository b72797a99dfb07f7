"""NetworkTrace facade: value semantics, lowering, request threading, shims."""

import numpy as np
import pytest

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.simnet import BandwidthEvent, NetworkTrace, as_network, cluster_at
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


def make_system(n_data=18, n_spare=4, k=4, m=2, seed=0):
    ds = make_wld(n_data + n_spare, "WLD-4x", seed=seed)
    nodes = [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data)]
    coord = Coordinator(Cluster(nodes), RSCode(k, m), block_bytes=2048,
                        block_size_mb=16.0, rng=seed)
    for j in range(n_spare):
        i = n_data + j
        coord.add_spare(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])))
    return coord


def payload(nbytes, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


# ------------------------------------------------------------------ #
# value semantics
# ------------------------------------------------------------------ #
def test_quiet_trace_is_empty_and_additive_identity():
    q = NetworkTrace.quiet()
    assert q.is_quiet
    assert q.events_for(Cluster([Node(0, 10, 10)])) == []
    d = NetworkTrace.degrade([0], at_time=1.0, factor=2.0)
    assert (q + d) is d
    assert (d + q) is d
    assert (q + q).is_quiet


def test_from_events_sorts_and_validates():
    e1 = BandwidthEvent(time=2.0, node=0, uplink=10.0)
    e2 = BandwidthEvent(time=1.0, node=1, uplink=20.0)
    tr = NetworkTrace.from_events([e1, e2])
    assert [e.time for e in tr.events] == [1.0, 2.0]
    with pytest.raises(TypeError):
        NetworkTrace.from_events(["not-an-event"])


def test_compose_merges_parts_in_time_order():
    cl = Cluster([Node(0, 100, 100), Node(1, 100, 100)])
    tr = (NetworkTrace.degrade([0], at_time=3.0, factor=2.0)
          + NetworkTrace.degrade([1], at_time=1.0, factor=4.0))
    events = tr.events_for(cl)
    assert [e.time for e in events] == [1.0, 3.0]
    assert events[0].node == 1 and events[0].uplink == 25.0
    assert events[1].node == 0 and events[1].uplink == 50.0


def test_ou_trace_is_seed_deterministic():
    cl = Cluster([Node(0, 100, 100), Node(1, 80, 120)])
    a = NetworkTrace.ou(5.0, seed=42).events_for(cl)
    b = NetworkTrace.ou(5.0, seed=42).events_for(cl)
    c = NetworkTrace.ou(5.0, seed=43).events_for(cl)
    assert a == b
    assert a != c


def test_as_network_coercions():
    assert as_network(None).is_quiet
    tr = NetworkTrace.degrade([0], at_time=1.0, factor=2.0)
    assert as_network(tr) is tr
    ev = BandwidthEvent(time=1.0, node=0, uplink=5.0)
    wrapped = as_network([ev])
    assert wrapped.kind == "events" and wrapped.events == (ev,)


def test_cluster_at_snapshot_applies_prefix_of_events():
    cl = Cluster([Node(0, 100, 200, rack=1), Node(1, 80, 120)])
    events = [
        BandwidthEvent(time=1.0, node=0, uplink=50.0),
        BandwidthEvent(time=2.0, node=0, uplink=10.0, downlink=20.0),
        BandwidthEvent(time=3.0, node=1, uplink=1.0),
    ]
    snap = cluster_at(cl, events, up_to=2.0)
    assert snap[0].uplink == 10.0 and snap[0].downlink == 20.0
    assert snap[1].uplink == 80.0  # t=3 event not yet applied
    assert snap[0].rack == 1
    # the original cluster is untouched
    assert cl[0].uplink == 100.0


# ------------------------------------------------------------------ #
# request threading
# ------------------------------------------------------------------ #
def test_repair_request_normalizes_network():
    ev = BandwidthEvent(time=1.0, node=0, uplink=5.0)
    req = RepairRequest(network=[ev])
    assert isinstance(req.network, NetworkTrace)
    assert req.network.events == (ev,)
    assert RepairRequest().network is None or as_network(RepairRequest().network).is_quiet


def test_repair_under_trace_slower_than_quiet():
    data = payload(60_000, seed=3)

    c1 = make_system()
    c1.write("f", data)
    c1.crash_node(0)
    quiet = c1.repair(RepairRequest(scheme="hmbr"))
    assert c1.read("f") == data

    survivors = [n for n in range(1, 18)]
    trace = NetworkTrace.degrade(survivors, at_time=0.05, factor=16.0)
    c2 = make_system()
    c2.write("f", data)
    c2.crash_node(0)
    churned = c2.repair(RepairRequest(scheme="hmbr", network=trace))
    assert c2.read("f") == data

    assert churned.makespan_s > quiet.makespan_s
    # the data plane is unaffected by the bandwidth model
    assert churned.bytes_moved == quiet.bytes_moved


def test_serve_request_accepts_network():
    from repro.workload import ServeRequest, WorkloadSpec

    coord = make_system()
    spec = WorkloadSpec(n_objects=4, object_bytes=2 * 4 * 2048,
                        duration_s=2.0, rate_ops_s=4.0, seed=7)
    trace = NetworkTrace.degrade(list(range(4)), at_time=0.5, factor=4.0)
    req = ServeRequest(spec=spec, network=trace)
    assert isinstance(req.network, NetworkTrace)
    res = coord.serve(req)
    assert res is not None


def test_request_list_network_reaches_the_scheduler():
    """``run_pending(network=)`` and a request list's trace are one path."""
    from repro.sched import RepairScheduler

    data = payload(60_000, seed=9)
    trace = NetworkTrace.from_events(
        [BandwidthEvent(time=0.1, node=i, uplink=8.0) for i in range(2, 8)]
    )

    def system():
        coord = make_system()
        coord.write("f", data)
        coord.crash_node(0)
        return coord

    direct = system()
    sched = RepairScheduler(direct)
    sched.submit("hmbr")
    report = sched.run_pending(network=trace)
    assert direct.read("f") == data

    facade = system()
    res = facade.repair([RepairRequest(network=trace)])
    assert [j.finish_s for j in res.report.jobs] == [j.finish_s for j in report.jobs]
    assert res.makespan_s > system().repair([RepairRequest()]).makespan_s
    with pytest.raises(TypeError):
        sched.run_pending(events=[])  # the pre-1.1 keyword is gone
