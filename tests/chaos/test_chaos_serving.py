"""Chaos: the serving plane under randomized fault storms (ISSUE 6).

Invariants, per randomized schedule seed:

* **no wrong bytes, ever** — every completed read's digest equals the
  sha256 of the independently-tracked expected object state (initial
  payload + every applied write patch, in op order);
* **no silent drops** — every generated op produces exactly one outcome,
  and every failed read names :class:`~repro.faults.errors.
  StripeUnrecoverable` (the only legal way for a read to fail);
* **no hangs** — every latency/finish value is finite, and the merged
  run's makespan is bounded.

Kills are drawn without regard for the erasure budget, so some rounds
push stripes beyond ``m`` losses on purpose: those reads must *fail
loudly*, not fabricate data.

Each round serves through a freshly-built plane with a random degraded-
read chunk count (the ISSUE 7 pipelined path), a random GF kernel backend
(the ISSUE 9 pluggable tier — all backends must produce identical bytes),
and the fast path armed, so the byte invariants cover every chunk
geometry x kernel tier under storm + kills.
"""

import hashlib
import math

import numpy as np

from repro.gf.backend import available_backends
from repro.gf.backend.base import _ENV_VAR
from repro.system.request import RepairRequest
from repro.workload import ServingPlane, WorkloadGenerator, WorkloadSpec, object_payload

K, M, BLOCK_BYTES = 4, 3, 1024
ROUNDS = 3


def _apply_writes_and_check(res, gen, expected):
    """Replay outcomes in op order against the tracked object state."""
    for o in res.outcomes:
        if o.kind == "read":
            if o.ok:
                want = hashlib.sha256(bytes(expected[o.obj])).hexdigest()
                assert o.digest == want, f"read op {o.op_id} returned wrong bytes"
                assert o.nbytes == len(expected[o.obj])
            else:
                assert o.error.startswith("StripeUnrecoverable"), o.error
        else:
            if o.ok:
                op = next(p for p in gen.ops() if p.op_id == o.op_id)
                patch = gen.patch_bytes(op)
                expected[o.obj][op.offset : op.offset + len(patch)] = patch
        assert math.isfinite(o.latency_s) and o.latency_s >= 0.0
        assert math.isfinite(o.finish_s) and o.finish_s >= o.t_s


def test_serving_survives_fault_storm(chaos_system, chaos_seed, monkeypatch):
    rng = np.random.default_rng(chaos_seed)
    coord = chaos_system(chaos_seed, k=K, m=M, block_bytes=BLOCK_BYTES)
    spec = WorkloadSpec(
        n_objects=6,
        object_bytes=2 * K * BLOCK_BYTES,
        duration_s=4.0,
        rate_ops_s=8.0,
        read_fraction=0.85,
        write_bytes=128,
        seed=int(chaos_seed) % (2**31),
    )
    plane = ServingPlane(coord, spec)
    plane.provision()
    gen = WorkloadGenerator(spec)
    n_ops = len(gen.ops())
    expected = {
        spec.object_name(i): bytearray(object_payload(spec, i))
        for i in range(spec.n_objects)
    }

    for _ in range(ROUNDS):
        # random kills, deliberately allowed to exceed the erasure budget
        alive = coord.data_nodes()
        n_kill = int(rng.integers(0, 3))
        for v in rng.choice(alive, size=min(n_kill, max(len(alive) - K, 0)), replace=False):
            coord.crash_node(int(v))
        # run a background repair alongside the traffic when spares allow it
        repair = ()
        if len(coord.free_spares()) >= len(coord.cluster.dead_ids()):
            repair = (RepairRequest(scheme="hmbr", priority="background"),)
        # a random chunk geometry and kernel backend per round: the
        # pipelined degraded path must produce identical bytes for every
        # chunk count and every GF kernel tier
        chunks = int(rng.integers(1, 9))
        backend = str(rng.choice(available_backends(coord.code.field.w)))
        monkeypatch.setenv(_ENV_VAR, backend)
        plane = ServingPlane(coord, spec, chunks=chunks)
        res = plane.run(repair=repair)
        assert res.chunks == chunks
        assert len(res.outcomes) == n_ops, "an op was silently dropped"
        assert math.isfinite(res.makespan_s) and res.makespan_s >= 0.0
        _apply_writes_and_check(res, gen, expected)
        assert res.reads + res.failed_reads + res.writes + res.failed_writes == n_ops
        # conservation: the plane's own byte count never exceeds the bus delta
        assert 0 <= res.foreground_bytes <= res.bus_bytes_delta
