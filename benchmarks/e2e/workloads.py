"""The five benchmark workloads.

Each workload is a small class the harness drives the same way:

* ``sizes(smoke)`` — the geometry, recorded verbatim in every result;
* ``prepare(seed, sz)`` — inputs generated from the seed, once per process;
* ``setup(inputs, sz)`` — a fresh system, identical every time (timed as one
  ``setup_s`` sample);
* ``op(state, sz)`` — the timed facade call(s); returns samples keyed by
  metric name (``op_wall_s`` is the call the user waits for);
* ``check(state)`` — byte-exact output checks *outside* the timed
  region; returns ``(attempted, failed)``.

Only the ``RepairRequest`` / ``ServeRequest`` facade is used.
"""

from __future__ import annotations

import hashlib
import math
from time import perf_counter

import numpy as np

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from repro.workload import ServeRequest, WorkloadSpec

MIB = float(1 << 20)

#: Pins everything that decides *how much work* a run does — the bandwidth
#: dataset, stripe placement and the client arrival trace.  With 16 stripes
#: on 60 nodes a re-drawn placement moves the lost-block count (and
#: ``op_wall_s``) by 15%, and a re-drawn trace moves ``serve_storm`` 3x, so a
#: structure drawn from ``--seed`` could not tell a regression from a lucky
#: draw.  ``--seed`` generates every byte that flows through the system.
STRUCTURE_SEED = 20230717

#: RS(32,8) on 60 data nodes — the ROADMAP anchor geometry.
_WIDE = dict(k=32, m=8, n_data=60, n_spare=8, block_bytes=1 << 16, stripes=16, dead=4)
_WIDE_SMOKE = dict(k=8, m=4, n_data=16, n_spare=4, block_bytes=1 << 12, stripes=3, dead=2)


def build_system(sz: dict, *, uniform_mbps: float | None = None) -> Coordinator:
    """A fresh cluster (WLD-4x unless ``uniform_mbps``) plus its spares."""
    n_data, n_spare = sz["n_data"], sz["n_spare"]
    if uniform_mbps is None:
        ds = make_wld(n_data + n_spare, "WLD-4x", seed=STRUCTURE_SEED)
        up, down = ds.uplinks, ds.downlinks
    else:
        up = down = [uniform_mbps] * (n_data + n_spare)
    nodes = [Node(i, float(up[i]), float(down[i])) for i in range(n_data + n_spare)]
    coord = Coordinator(
        Cluster(nodes[:n_data]),
        RSCode(sz["k"], sz["m"]),
        block_bytes=sz["block_bytes"],
        block_size_mb=sz.get("block_size_mb", 64.0),
        rng=STRUCTURE_SEED,
    )
    for node in nodes[n_data:]:
        coord.add_spare(node)
    return coord


def _payload(seed: int, sz: dict) -> bytes:
    nbytes = sz["stripes"] * sz["k"] * sz["block_bytes"]
    return np.random.default_rng([seed, 1]).integers(0, 256, nbytes, dtype=np.uint8).tobytes()


class Workload:
    """Base: no final check, no trace-only extras."""

    name = ""
    #: the smallest reduction of ``sz`` that still walks every code path;
    #: used for the discarded warm-up iteration.
    warm_overrides: dict = {"stripes": 2}

    def sizes(self, smoke: bool) -> dict:
        raise NotImplementedError

    def prepare(self, seed: int, sz: dict):
        raise NotImplementedError

    def setup(self, inputs, sz: dict):
        raise NotImplementedError

    def op(self, state, sz: dict) -> dict[str, list[float]]:
        raise NotImplementedError

    def check(self, state) -> tuple[int, int]:
        raise NotImplementedError

    def final_check(self, state) -> tuple[int, int]:
        """A dearer check run once, on the last iteration's system."""
        return 0, 0

    def trace_extras(self, inputs, sz: dict) -> tuple[dict[str, float], int, int]:
        """Per-layer values only the traced run computes."""
        return {}, 0, 0


# ------------------------------------------------------------------ #
class WideRepair(Workload):
    """HMBR repair of 4 dead nodes on real bytes (verify on)."""

    name = "wide_repair"

    def sizes(self, smoke):
        return dict(_WIDE_SMOKE if smoke else _WIDE)

    def prepare(self, seed, sz):
        return {"payload": _payload(seed, sz)}

    def setup(self, inputs, sz):
        coord = build_system(sz)
        coord.write("f", inputs["payload"])
        for node in range(sz["dead"]):
            coord.crash_node(node)
        return {"coord": coord, "payload": inputs["payload"]}

    def op(self, state, sz):
        coord = state["coord"]
        transfers = coord.bus.transfer_count
        t0 = perf_counter()
        res = coord.repair(RepairRequest())
        wall = perf_counter() - t0
        state["res"] = res
        return {
            "op_wall_s": [wall],
            "simnet.makespan_sim_s": [float(res.makespan_s)],
            "system.bus_bytes": [res.bytes_moved],
            "system.bus_transfers": [coord.bus.transfer_count - transfers],
        }

    def check(self, state):
        res = state["res"]
        repaired = res.ok and res.blocks_recovered > 0
        readback = state["coord"].read("f") == state["payload"]
        return 2, (not repaired) + (not readback)


# ------------------------------------------------------------------ #
class BulkRepair(Workload):
    """Rolling failures repaired by batched CR with verify off."""

    name = "bulk_repair"
    warm_overrides = {"stripes": 2, "rounds": 2}

    def sizes(self, smoke):
        if smoke:
            return dict(_WIDE_SMOKE, n_spare=6, rounds=3)
        return dict(_WIDE, block_bytes=1 << 17, n_spare=48, rounds=12)

    def prepare(self, seed, sz):
        return {"payload": _payload(seed, sz)}

    def setup(self, inputs, sz):
        coord = build_system(sz)
        coord.write("f", inputs["payload"])
        return {"coord": coord, "payload": inputs["payload"]}

    def op(self, state, sz):
        coord = state["coord"]
        request = RepairRequest(scheme="cr", batched=True, verify=False)
        out = {"op_wall_s": [], "system.bus_bytes": [], "system.bus_transfers": []}
        makespan = 0.0
        state["ok"] = []
        for rnd in range(sz["rounds"]):
            for node in range(rnd * sz["dead"], (rnd + 1) * sz["dead"]):
                coord.crash_node(node)
            transfers = coord.bus.transfer_count
            t0 = perf_counter()
            res = coord.repair(request)
            out["op_wall_s"].append(perf_counter() - t0)
            out["system.bus_bytes"].append(res.bytes_moved)
            out["system.bus_transfers"].append(coord.bus.transfer_count - transfers)
            makespan += float(res.makespan_s)
            state["ok"].append(res.ok and res.blocks_recovered > 0)
        out["simnet.makespan_sim_s"] = [makespan]
        out["repair.plan_cache_hit_ratio"] = [coord.plan_cache.stats()["hit_rate"]]
        return out

    def check(self, state):
        readback = state["coord"].read("f") == state["payload"]
        return len(state["ok"]) + 1, state["ok"].count(False) + (not readback)

    def final_check(self, state):
        # verify is off, so the rebuilt parity blocks are only proven here
        health = state["coord"].scrub()
        return len(health), sum(1 for ok in health.values() if not ok)


# ------------------------------------------------------------------ #
class PlanStorm(Workload):
    """Metadata-only HMBR planning of 64 stripes; not one payload byte."""

    name = "plan_storm"
    warm_overrides = {"stripes": 4}

    def sizes(self, smoke):
        return dict(_WIDE_SMOKE, stripes=6) if smoke else dict(_WIDE, stripes=64)

    def prepare(self, seed, sz):
        return {}  # metadata only: no byte to generate

    def setup(self, inputs, sz):
        coord = build_system(sz)
        coord.place_stripes(sz["stripes"], materialize=False)
        for node in range(sz["dead"]):
            coord.crash_node(node)
        return {"coord": coord}

    def op(self, state, sz):
        coord = state["coord"]
        t0 = perf_counter()
        timing = coord.plan_repair("hmbr", commit=False)
        wall = perf_counter() - t0
        state["timing"] = timing
        return {
            "op_wall_s": [wall],
            "simnet.makespan_sim_s": [float(timing.makespan_s)],
            "system.bus_bytes": [coord.bus.total_bytes()],
        }

    def check(self, state):
        timing, coord = state["timing"], state["coord"]
        planned = (
            timing.blocks_recovered > 0
            and len(timing.plans) == len(timing.stripes) > 0
            and timing.makespan_s > 0
        )
        untouched = not timing.committed and coord.bus.total_bytes() == 0
        return 1, int(not (planned and untouched))


# ------------------------------------------------------------------ #
class ServeStorm(Workload):
    """Open-loop client reads contending with a background repair storm."""

    name = "serve_storm"
    warm_overrides = {"duration_s": 5.0}

    def sizes(self, smoke):
        sz = dict(
            k=8, m=4, n_data=20, n_spare=6, node_mbps=100.0, block_bytes=1 << 12,
            block_size_mb=16.0, n_objects=16, stripes_per_object=2, dead=3,
            duration_s=60.0, rates_ops_s=[2.0, 3.0, 4.0, 5.0], reference_rate_ops_s=4.0,
            latency_limit_s=5.0, chunks=8, decode_mbps=64.0,
        )
        if smoke:
            sz.update(n_objects=6, duration_s=3.0, rates_ops_s=[2.0, 4.0], chunks=4)
        return sz

    @staticmethod
    def _spec(sz, rate):
        return WorkloadSpec(
            n_objects=sz["n_objects"],
            object_bytes=sz["stripes_per_object"] * sz["k"] * sz["block_bytes"],
            duration_s=sz["duration_s"],
            rate_ops_s=rate,
            # writes that touch a dead data node are refused by design, so a
            # mixed trace always carries failed operations; reads only.
            read_fraction=1.0,
            seed=STRUCTURE_SEED,
        )

    def prepare(self, seed, sz):
        spec = self._spec(sz, sz["reference_rate_ops_s"])
        bodies = [
            np.random.default_rng([seed, 3, i])
            .integers(0, 256, spec.object_bytes, dtype=np.uint8)
            .tobytes()
            for i in range(spec.n_objects)
        ]
        digests = {
            spec.object_name(i): hashlib.sha256(body).hexdigest()
            for i, body in enumerate(bodies)
        }
        return {"spec": spec, "bodies": bodies, "digests": digests}

    def setup(self, inputs, sz, rate=None):
        spec = inputs["spec"] if rate is None else self._spec(sz, rate)
        coord = build_system(sz, uniform_mbps=sz["node_mbps"])
        for i, body in enumerate(inputs["bodies"]):
            coord.write(spec.object_name(i), body)
        stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
        for node in stripe0.placement[: sz["dead"]]:
            coord.crash_node(node)
        return {"coord": coord, "spec": spec, "digests": inputs["digests"]}

    def op(self, state, sz):
        storm = RepairRequest(scheme="hmbr", batched=True, priority="background")
        request = ServeRequest(
            state["spec"], repair=(storm,), chunks=sz["chunks"], decode_mbps=sz["decode_mbps"]
        )
        t0 = perf_counter()
        res = state["coord"].serve(request)
        wall = perf_counter() - t0
        state["res"] = res
        return {
            "op_wall_s": [wall],
            "simnet.makespan_sim_s": [float(res.makespan_s)],
            "system.bus_bytes": [res.bus_bytes_delta],
            "sched.waves": [res.repair.waves],
            "workload.ops": [len(res.outcomes)],
            "workload.degraded_reads": [res.degraded_reads],
            "workload.fast_path_reads": [res.fast_path_reads],
            "workload.read_p95_sim_s": [read_p95(res)],
        }

    def check(self, state):
        outcomes = state["res"].outcomes
        digests = state["digests"]
        bad = sum(1 for o in outcomes if not o.ok or o.digest != digests[o.obj])
        return max(len(outcomes), 1), bad + (not outcomes)

    def trace_extras(self, inputs, sz):
        """The fixed rate ladder: each rung is deterministic, so once each."""
        best, attempted, failed = 0.0, 0, 0
        for rate in sz["rates_ops_s"]:
            state = self.setup(inputs, sz, rate=rate)
            self.op(state, sz)
            a, f = self.check(state)
            attempted, failed = attempted + a, failed + f
            res = state["res"]
            backlog = max(o.finish_s for o in res.outcomes) - sz["duration_s"]
            if (
                f == 0
                and read_p95(res) <= sz["latency_limit_s"]
                and backlog <= sz["latency_limit_s"]
            ):
                best = max(best, rate)
        return {"workload.max_rate_ok_ops_s": best}, attempted, failed


def read_p95(res) -> float:
    """Nearest-rank p95 of completed client read latencies (simulated s).

    Latency is ``finish_s - t_s`` from the *due* time of an arrival
    scheduled in simulated time, so generator lateness is 0 by construction.
    """
    lat = sorted(o.latency_s for o in res.outcomes if o.kind == "read" and o.ok)
    if not lat:
        return 0.0
    return float(lat[math.ceil(0.95 * len(lat)) - 1])


# ------------------------------------------------------------------ #
class IngestScrub(Workload):
    """write -> 4 KiB updates -> scrub -> read -> crash 4 -> degraded read."""

    name = "ingest_scrub"
    warm_overrides = {"stripes": 2, "updates": 4}

    def sizes(self, smoke):
        if smoke:
            return dict(_WIDE_SMOKE, updates=8, update_bytes=512)
        return dict(_WIDE, updates=64, update_bytes=4096)

    def prepare(self, seed, sz):
        payload = _payload(seed, sz)
        rng = np.random.default_rng([seed, 2])
        n, size = sz["updates"], sz["update_bytes"]
        offsets = [int(o) for o in rng.integers(0, len(payload) - size, n)]
        patches = [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(n)]
        expect = bytearray(payload)
        for off, patch in zip(offsets, patches):
            expect[off : off + size] = patch
        return {
            "payload": payload, "offsets": offsets, "patches": patches, "expect": bytes(expect),
        }

    def setup(self, inputs, sz):
        return {"coord": build_system(sz), "inputs": inputs}

    def op(self, state, sz):
        coord, inputs = state["coord"], state["inputs"]
        stored = sz["stripes"] * (sz["k"] + sz["m"]) * sz["block_bytes"]
        walls = {}

        t0 = perf_counter()
        receipt = coord.write("f", inputs["payload"])
        walls["write"] = perf_counter() - t0

        t0 = perf_counter()
        patched = [
            coord.update("f", off, patch)["blocks_patched"]
            for off, patch in zip(inputs["offsets"], inputs["patches"])
        ]
        walls["update"] = perf_counter() - t0

        t0 = perf_counter()
        health = coord.scrub()
        walls["scrub"] = perf_counter() - t0

        t0 = perf_counter()
        healthy = coord.read("f")
        walls["read"] = perf_counter() - t0

        for node in range(sz["dead"]):
            coord.crash_node(node)
        t0 = perf_counter()
        degraded = coord.read("f")
        walls["degraded"] = perf_counter() - t0

        state.update(
            receipt=receipt, patched=patched, health=health, healthy=healthy, degraded=degraded
        )
        payload_mib = len(inputs["payload"]) / MIB
        return {
            "op_wall_s": [sum(walls.values())],
            "system.ingest_mbps": [payload_mib / walls["write"]],
            "system.update_ops_s": [len(patched) / walls["update"]],
            "system.scrub_mbps": [stored / MIB / walls["scrub"]],
            "system.degraded_read_mbps": [payload_mib / walls["degraded"]],
            "system.bus_bytes": [coord.bus.total_bytes()],
            "system.bus_transfers": [coord.bus.transfer_count],
        }

    def check(self, state):
        expect = state["inputs"]["expect"]
        failed = (
            (state["receipt"].nbytes != len(expect))
            + sum(1 for n in state["patched"] if n < 1)
            + sum(1 for ok in state["health"].values() if not ok)
            + (state["healthy"] != expect)
            + (state["degraded"] != expect)
        )
        return 1 + len(state["patched"]) + len(state["health"]) + 2, failed


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (WideRepair(), BulkRepair(), PlanStorm(), ServeStorm(), IngestScrub())
}
