"""The serving plane's run-scoped read template is exact.

:meth:`ServingPlane.run` scans each stripe's readable blocks once per run
and hashes each object once, then serves every later read of the run from
that template; a write that lands drops only its object's entry.  These
tests pin that the memoised run is indistinguishable from one that rebuilds
the template before every op (byte for byte, bus count for bus count, float
for float), that the template does no per-op work twice, and that it never
outlives its run.
"""

import gc
import hashlib
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.gf.field import GF
from repro.obs import Observability
from repro.repair.batch import BatchRepairEngine
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from repro.workload import ServeRequest, ServingPlane, WorkloadSpec, object_payload
from repro.workload import serving

K, M, BLOCK_BYTES, N_DATA, N_SPARE = 4, 2, 1024, 10, 4


def _system(w):
    nodes = [Node(i, 100.0, 100.0, rack=i % 3) for i in range(N_DATA + N_SPARE)]
    coord = Coordinator(
        Cluster(nodes[:N_DATA]), RSCode(K, M, GF(w)), block_bytes=BLOCK_BYTES,
        block_size_mb=8.0, rng=3,
    )
    for node in nodes[N_DATA:]:
        coord.add_spare(node)
    return coord


def _spec(read_fraction):
    return WorkloadSpec(
        n_objects=6, object_bytes=2 * K * BLOCK_BYTES, duration_s=10.0,
        rate_ops_s=4.0, read_fraction=read_fraction, write_bytes=128, seed=17,
    )


def _view(res, coord):
    """Everything a serve reports or meters, floats by their bits."""
    bus = coord.bus
    return (
        res.outcomes, res.summary(), res.foreground_bytes, res.bus_bytes_delta,
        dict(bus.sent_bytes), dict(bus.received_bytes), bus.transfer_count,
        bus.cross_rack_bytes, [o.finish_s.hex() for o in res.outcomes],
        res.makespan_s.hex(),
    )


def _serve_twice(w, read_fraction, *, traced=False):
    """A healthy serve, a crash, then a serve against a repair storm."""
    coord = _system(w)
    obs = Observability().attach(coord) if traced else None
    spec = _spec(read_fraction)
    views = [_view(coord.serve(ServeRequest(spec, chunks=2)), coord)]
    for node in coord.layout[0].placement[:M]:
        coord.crash_node(node)
    storm = RepairRequest(scheme="hmbr", priority="background")
    res = coord.serve(ServeRequest(spec, repair=(storm,), chunks=2, decode_mbps=64.0))
    views.append(_view(res, coord))
    return views, res, obs


@pytest.fixture
def rebuild_every_op(monkeypatch):
    """Make every read start from an empty template (the unmemoised run)."""
    read_plan = ServingPlane._read_plan

    def rebuilding(self, name, gateway, engine, template, *args, **kwargs):
        template.clear()
        return read_plan(self, name, gateway, engine, template, *args, **kwargs)

    def install():
        monkeypatch.setattr(ServingPlane, "_read_plan", rebuilding)

    return install


@pytest.mark.parametrize("read_fraction", [1.0, 0.7], ids=["read-only", "mixed"])
@pytest.mark.parametrize("w", [8, 16], ids=["gf8", "gf16"])
def test_memoised_run_equals_a_rebuild_before_every_op(w, read_fraction, rebuild_every_op):
    memo, res, _ = _serve_twice(w, read_fraction)
    assert res.fast_path_reads > 0 and res.degraded_reads > 0
    rebuild_every_op()
    assert _serve_twice(w, read_fraction)[0] == memo


def test_memoised_run_emits_the_rebuilds_chunk_spans(rebuild_every_op):
    def chunk_spans(obs):
        return [s for s in obs.tracer.spans if s.name.startswith("workload.chunk:")]

    memo, _, obs = _serve_twice(8, 1.0, traced=True)
    spans = chunk_spans(obs)
    # template hits decode nothing, and their ops-domain spans say so
    assert any(s.args.get("decoded") is False for s in spans)
    rebuild_every_op()
    again, _, obs_again = _serve_twice(8, 1.0, traced=True)
    assert again == memo
    assert len(chunk_spans(obs_again)) == len(spans)
    assert not any("decoded" in s.args for s in chunk_spans(obs_again))


def test_read_only_run_hashes_and_decodes_each_object_once(monkeypatch):
    coord = _system(8)
    spec = _spec(1.0)
    plane = ServingPlane(coord, spec, chunks=2)
    plane.provision()
    for node in coord.layout[0].placement[:M]:
        coord.crash_node(node)
    # stripes a read decodes: a data block on a dead node (the storm
    # rebuilds them only after the foreground loop)
    lost = {
        s.stripe_id
        for s in coord.layout
        if any(not coord.agents[node].alive for node in s.placement[:K])
    }
    hashed, decoded = Counter(), Counter()

    def sha256(payload):
        hashed[payload] += 1
        return hashlib.sha256(payload)

    stripe_data = ServingPlane._stripe_data

    def counting_stripe_data(self, sid, entry, *args):
        if entry[1]:  # missing data blocks: this call decodes
            decoded[sid] += 1
        return stripe_data(self, sid, entry, *args)

    monkeypatch.setattr(serving, "hashlib", SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(ServingPlane, "_stripe_data", counting_stripe_data)
    obs = Observability().attach(coord)
    storm = RepairRequest(scheme="hmbr", priority="background")
    res = plane.run(repair=(storm,))

    read = {o.obj for o in res.outcomes}
    assert len(res.outcomes) > 2 * len(read)  # objects are read again
    assert all(o.ok for o in res.outcomes)
    assert sorted(hashed.values()) == [1] * len(read)
    lost &= {sid for name in read for sid in coord.files[name][0]}
    assert lost and decoded == Counter(dict.fromkeys(lost, 1))
    # one template per stripe read; every later stripe read is a hit
    stripes_read = sum(len(coord.files[o.obj][0]) for o in res.outcomes)
    built = sum(len(coord.files[name][0]) for name in read)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["workload.read_templates"] == built
    assert counters["workload.read_template_hits"] == stripes_read - built


def test_the_template_never_outlives_its_run_or_serves_a_stale_read(monkeypatch):
    coord = _system(8)
    spec = _spec(1.0)
    plane = ServingPlane(coord, spec)
    templates = []
    read_plan = ServingPlane._read_plan

    def spy(self, name, gateway, engine, template, *args, **kwargs):
        templates.append(template)
        return read_plan(self, name, gateway, engine, template, *args, **kwargs)

    monkeypatch.setattr(ServingPlane, "_read_plan", spy)
    first = plane.run()
    assert templates and all(t is templates[0] for t in templates)
    assert gc.get_referrers(templates[0]) == [templates]  # the plane holds none

    name = spec.object_name(0)
    patch = bytes(range(64))
    coord.update(name, 100, patch)
    body = bytearray(object_payload(spec, 0))
    body[100:164] = patch
    assert plane.read_object(name) == bytes(body)
    assert templates[-1] is not templates[0]

    digest = hashlib.sha256(bytes(body)).hexdigest()
    again = plane.run()
    assert {o.digest for o in again.outcomes if o.obj == name} == {digest}
    assert {o.digest for o in first.outcomes if o.obj == name} != {digest}


@pytest.mark.parametrize("lands", [True, False], ids=["applied", "refused"])
def test_a_write_drops_only_its_objects_entry_when_it_lands(lands, monkeypatch):
    coord = _system(8)
    spec = _spec(0.0)
    plane = ServingPlane(coord, spec)
    plane.provision()
    op = plane.gen.ops()[0]
    if not lands:

        def refuse(*args):
            raise IOError("write touched a dead data node")

        monkeypatch.setattr(coord, "update", refuse)
    other = next(
        spec.object_name(i) for i in range(spec.n_objects) if spec.object_name(i) != op.obj
    )
    template = {0: ({}, [], []), op.obj: (1, "digest"), other: (2, "other")}
    kept = dict(template)
    ok, metered = plane._write_plan(op, template, None, "")
    assert ok is lands and (metered > 0) is lands
    if lands:
        del kept[op.obj]
    assert template == kept


def test_a_mixed_run_scans_each_stripe_once():
    """Writes leave every stripe scan standing: a mixed run builds one
    template per stripe it reads (the whole-template drop built 66, hit 36)."""
    coord = _system(8)
    obs = Observability().attach(coord)
    spec = WorkloadSpec(
        n_objects=10, object_bytes=2 * K * BLOCK_BYTES, duration_s=20.0,
        rate_ops_s=4.0, read_fraction=0.7, write_bytes=128, seed=17,
    )
    res = coord.serve(ServeRequest(spec))
    reads = [o for o in res.outcomes if o.kind == "read"]
    assert all(o.ok for o in res.outcomes) and len(reads) < len(res.outcomes)
    stripes_read = sum(len(coord.files[o.obj][0]) for o in reads)
    built = len({sid for o in reads for sid in coord.files[o.obj][0]})
    counters = obs.metrics.snapshot()["counters"]
    assert (counters["workload.read_templates"], counters["workload.read_template_hits"]) == (
        built, stripes_read - built,
    ) == (20, 82)


def test_a_hit_reads_no_bytes_and_holds_a_fresh_reads_scan():
    coord = _system(8)
    spec = _spec(1.0)
    plane = ServingPlane(coord, spec)
    plane.provision()
    coord.crash_node(coord.layout[0].placement[0])
    name = spec.object_name(0)
    gw = sorted(coord.data_nodes())[0]
    engine = BatchRepairEngine(coord.code, cache=coord.plan_cache)
    template = {}
    payload, _ = plane._read_plan(name, gw, engine, template, None, "")
    assert payload == plane.read_object(name, gateway=gw) == object_payload(spec, 0)
    template[name] = (len(payload), hashlib.sha256(payload).hexdigest())
    assert plane._read_plan(name, gw, engine, template, None, "")[0] is None
    for sid in coord.files[name][0]:
        assert template[sid] == plane._scan_stripe(sid)
        available, missing, chosen = template[sid]
        assert missing == [b for b in range(K) if b not in available]
        assert chosen == (sorted(available)[:K] if missing else list(range(K)))


def test_gf16_fast_path_fetches_meter_whole_blocks(monkeypatch):
    """Every foreground fetch of a GF(2^16) serve meters one block of 2-byte
    field elements: healthy, degraded and fast-path reads alike."""
    coord = _system(16)
    spec = _spec(1.0)
    ServingPlane(coord, spec).provision()
    for node in coord.layout[0].placement[:M]:
        coord.crash_node(node)
    fetched, reading = [], []
    record = coord.bus.record

    def metered(src, dst, nbytes):
        if reading:
            fetched.append(nbytes)
        record(src, dst, nbytes)

    read_plan = ServingPlane._read_plan

    def foreground(self, *args, **kwargs):
        reading.append(True)
        try:
            return read_plan(self, *args, **kwargs)
        finally:
            reading.pop()

    monkeypatch.setattr(coord.bus, "record", metered)
    monkeypatch.setattr(ServingPlane, "_read_plan", foreground)
    storm = RepairRequest(scheme="hmbr", priority="background")
    res = coord.serve(ServeRequest(spec, repair=(storm,), chunks=2, decode_mbps=64.0))
    assert res.fast_path_reads > 0 and res.degraded_reads > 0
    assert fetched and set(fetched) == {BLOCK_BYTES * 2}
