"""Three-regime serving regression: healthy / degraded / repair storm.

Pins ISSUE 6's acceptance claim on one seeded scenario:

* **healthy** — no failures: every read completes un-degraded and the
  p50/p99 tables are finite and populated;
* **degraded** — two dead nodes: reads landing on lost blocks decode on
  the fly and pay for it (degraded p99 >= healthy-subset p99 in the same
  run, and the whole run's p99 >= the healthy regime's);
* **repair storm** — the same failures with a whole-cluster repair queued
  alongside the traffic.  The storm raises foreground read p99 *less*
  when client flows run at the scheduler's foreground weight (4.0)
  against a background storm (0.25) than when everything contends at
  equal weight — the weighted-sharing protection the bench quantifies.

Everything is simulated time, so every number here is deterministic; the
final test pins that too.
"""

import math

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from repro.workload import ServeRequest, ServingPlane, WorkloadSpec

K, M, BLOCK_BYTES = 4, 2, 4096
SPEC = WorkloadSpec(
    n_objects=8,
    object_bytes=2 * K * BLOCK_BYTES,
    duration_s=6.0,
    rate_ops_s=8.0,
    read_fraction=0.9,
    write_bytes=256,
    seed=20230717,
)


def _build():
    coord = Coordinator(
        Cluster([Node(i, 100.0, 100.0) for i in range(14)]),
        RSCode(K, M),
        block_bytes=BLOCK_BYTES,
        block_size_mb=48.0,
        rng=4242,
        heartbeat_timeout=5.0,
    )
    for j in range(6):
        coord.add_spare(Node(14 + j, 100.0, 100.0))
    return coord


def _run(*, foreground_weight=4.0, kill=0, repair=(), chunks=1,
         fast_path=True, decode_mbps=1024.0):
    """One fresh system serving SPEC, optionally faulted and under storm."""
    coord = _build()
    plane = ServingPlane(
        coord, SPEC, foreground_weight=foreground_weight, chunks=chunks,
        fast_path=fast_path, decode_mbps=decode_mbps,
    )
    plane.provision()
    if kill:
        stripe0 = next(s for s in coord.layout if s.stripe_id == 0)
        for v in stripe0.placement[:kill]:
            coord.crash_node(v)
    return plane.run(repair=repair)


def _storm():
    """A whole-cluster repair submitted next to the traffic."""
    return (RepairRequest(scheme="hmbr", priority="background"),)


def _finite(table):
    assert table["count"] > 0
    for key in ("p50", "p99", "mean", "min", "max"):
        assert math.isfinite(table[key]) and table[key] >= 0.0


# ------------------------------------------------------------------ #
# the three regimes report p50/p99
# ------------------------------------------------------------------ #
def test_healthy_regime():
    """No failures: all reads healthy, served through the serve() facade."""
    res = _build().serve(ServeRequest(spec=SPEC))
    assert res.failed_reads == 0 and res.failed_writes == 0
    assert res.degraded_reads == 0
    assert res.latency_degraded == {"count": 0}
    _finite(res.latency)
    _finite(res.latency_healthy)
    assert res.latency == res.latency_healthy
    # healthy foreground is the only bus traffic there is
    assert res.foreground_bytes == res.bus_bytes_delta > 0


def test_degraded_regime():
    """Two dead nodes: degraded reads complete, and they pay for the decode."""
    healthy = _run()
    res = _run(kill=2)
    assert res.failed_reads == 0, "2 losses with m=2 must stay recoverable"
    assert res.degraded_reads > 0
    _finite(res.latency_degraded)
    # the decode surcharge is visible: degraded reads trail the healthy
    # reads of the *same* run (cross-run comparison is not meaningful —
    # killing nodes reshuffles which gateway serves each op)
    assert res.latency_degraded["p99"] >= res.latency_healthy["p99"]
    assert res.latency_degraded["mean"] >= res.latency_healthy["mean"]
    # every read still reported a latency
    assert res.latency["count"] == healthy.latency["count"]


def test_storm_regime_reports_all_tables():
    res = _run(kill=2, repair=_storm())
    assert res.degraded_reads > 0
    _finite(res.latency)
    _finite(res.latency_healthy)
    _finite(res.latency_degraded)
    assert res.repair is not None and len(res.repair.jobs) == 1
    assert res.repair.jobs[0].state == "done"
    # the storm moved repair bytes over and above the foreground's
    assert res.bus_bytes_delta > res.foreground_bytes


# ------------------------------------------------------------------ #
# the acceptance pin: weighted sharing protects foreground p99
# ------------------------------------------------------------------ #
def test_storm_hurts_foreground_less_under_weighted_sharing():
    """fg 4.0 vs bg 0.25 beats everyone-at-1.0, with the same storm.

    ``fast_path=False`` isolates pure contention: with the fast path on,
    reads arriving after the storm's estimated landings stop degrading at
    all and storm p99 can drop *below* the no-repair baseline (that
    rescue is pinned separately below).
    """
    baseline = _run(kill=2)
    weighted = _run(
        foreground_weight=4.0, kill=2, repair=_storm(), fast_path=False
    )
    equal = _run(
        foreground_weight=1.0,
        kill=2,
        repair=(RepairRequest(scheme="hmbr", weight=1.0),),
        fast_path=False,
    )
    # the storm hurts in both policies...
    assert weighted.latency["p99"] >= baseline.latency["p99"]
    assert equal.latency["p99"] > baseline.latency["p99"]
    # ...but measurably less under weighted sharing
    assert weighted.latency["p99"] < equal.latency["p99"]
    assert weighted.latency["p50"] <= equal.latency["p50"]
    # the protection is real, not a different amount of repair work:
    # both storms repaired the same stripes and moved the same bytes
    wj, ej = weighted.repair.jobs[0], equal.repair.jobs[0]
    assert (wj.stripes_repaired, wj.blocks_recovered) == (
        ej.stripes_repaired,
        ej.blocks_recovered,
    )
    assert weighted.bus_bytes_delta == equal.bus_bytes_delta


def test_fast_path_rescues_reads_behind_the_repair_wave():
    """Partially-repaired stripes answer as healthy reads (same bytes).

    With the fast path armed, ops arriving after the storm's estimated
    per-stripe landings skip the degraded surcharge; the run serves fewer
    degraded reads at a p99 no worse than the contention-only run, and
    every payload digest is unchanged.
    """
    rescued = _run(kill=2, repair=_storm())
    contended = _run(kill=2, repair=_storm(), fast_path=False)
    assert rescued.fast_path_reads > 0
    assert contended.fast_path_reads == 0
    assert rescued.degraded_reads < contended.degraded_reads
    assert rescued.latency["p99"] <= contended.latency["p99"]
    assert [o.digest for o in rescued.outcomes] == [
        o.digest for o in contended.outcomes
    ]
    # rescued stripes are modeled as healthy fetches, never failures
    assert rescued.failed_reads == contended.failed_reads
    assert rescued.reads == contended.reads


def test_regimes_are_deterministic():
    """One seed, one report: the regime summaries replay bit-identically."""
    a = _run(kill=2, repair=_storm())
    b = _run(kill=2, repair=_storm())
    assert a.summary() == b.summary()
    assert [o.digest for o in a.outcomes] == [o.digest for o in b.outcomes]
