"""System-level tests for the batched repair path.

Twin-system differentials: two identically-seeded coordinators suffer the
same failures, one repairs per-stripe and one batched — stored bytes,
placements, and simulated repair times must come out identical, healthy
*and* after a `repro.faults` storm.  Plus: the pattern-grouped multi-node
scheduler and the observability spans/metrics the batched plane emits.
"""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import get_code
from repro.faults.schedule import FaultSchedule
from repro.obs import Observability
from repro.repair.batch import PlanCache
from repro.repair.multinode import plan_multi_node
from repro.simnet.fluid import FluidSimulator
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest

BLOCK = 1 << 12


def build_system(seed=0, n_data=16, n_spare=6, k=4, m=3, n_stripes=10):
    nodes = [Node(i, rack=i % 4, uplink=1.0, downlink=1.0) for i in range(n_data)]
    coord = Coordinator(Cluster(nodes), get_code(k, m, 8), block_bytes=BLOCK, rng=seed)
    for j in range(n_spare):
        coord.add_spare(Node(100 + j, rack=j % 4, uplink=1.0, downlink=1.0))
    rng = np.random.default_rng(seed + 1000)
    payload = rng.integers(0, 256, size=n_stripes * k * BLOCK, dtype=np.uint8).tobytes()
    coord.write("f", payload)
    return coord


def snapshot(coord):
    placements = {s.stripe_id: list(s.placement) for s in coord.layout}
    return coord.read("f"), placements


@pytest.mark.parametrize("scheme", ["hmbr", "cr", "ir"])
def test_batched_repair_bit_exact_with_per_stripe(scheme):
    a, b = build_system(), build_system()
    for coord in (a, b):
        coord.crash_node(3)
        coord.crash_node(7)
    ra = a.repair(RepairRequest(scheme=scheme))
    rb = b.repair(RepairRequest(scheme=scheme, batched=True))
    data_a, place_a = snapshot(a)
    data_b, place_b = snapshot(b)
    assert data_a == data_b
    assert place_a == place_b
    # planning and the timing plane are untouched by batching
    assert rb.makespan_s == pytest.approx(ra.makespan_s, abs=1e-12)
    assert rb.per_stripe_transfer_s == ra.per_stripe_transfer_s
    assert rb.blocks_recovered == ra.blocks_recovered
    assert rb.batched and not ra.batched
    assert rb.plan_summary["pattern_groups"] >= 1
    assert rb.plan_summary["plan_cache"]["misses"] >= 1


def test_batched_repair_verifies_stripes():
    coord = build_system()
    coord.crash_node(2)
    coord.repair(RepairRequest(batched=True, verify=True))
    assert all(coord.scrub().values())


def test_plan_cache_reused_across_storms():
    coord = build_system()
    coord.crash_node(3)
    r1 = coord.repair(RepairRequest(batched=True))
    assert r1.plan_summary["plan_cache"]["hits"] == 0
    # same node layout failing again elsewhere: some patterns recur
    coord.crash_node(5)
    r2 = coord.repair(RepairRequest(batched=True))
    stats = r2.plan_summary["plan_cache"]
    assert stats["misses"] >= r1.plan_summary["plan_cache"]["misses"]
    assert coord.plan_cache.stats() == stats  # report mirrors the live cache


def test_batched_repair_bit_exact_after_fault_storm():
    """Under a `repro.faults` schedule the storm degrades both twins the
    same way; the follow-up repair (batched vs not) must stay bit-exact."""
    schedule = FaultSchedule.random(
        seed=20230717, targets=list(range(8)), n_events=4, max_kills=1
    )
    a, b = build_system(seed=3), build_system(seed=3)
    for coord in (a, b):
        coord.crash_node(1)
        coord.repair(RepairRequest(faults=schedule, scheme="hmbr"))
    # the storm left both systems in the same state; now another node dies
    for coord in (a, b):
        victim = next(i for i in (4, 6, 8) if coord.cluster[i].alive)
        coord.crash_node(victim)
    a.repair(RepairRequest(scheme="hmbr"))
    b.repair(RepairRequest(scheme="hmbr", batched=True))
    data_a, place_a = snapshot(a)
    data_b, place_b = snapshot(b)
    assert data_a == data_b
    assert place_a == place_b
    assert all(b.scrub().values())


def test_batched_repair_emits_obs_spans_and_metrics():
    coord = build_system()
    obs = Observability()
    obs.attach(coord)
    coord.crash_node(3)
    report = coord.repair(RepairRequest(batched=True))
    names = [s.name for s in obs.tracer.spans]
    assert "dispatch-batch" in names
    assert any(n.startswith("batch:") for n in names)
    m = obs.metrics
    assert m.counter("batch.groups").value == report.plan_summary["pattern_groups"]
    assert m.counter("batch.stripes").value == len(report.stripes_repaired)
    assert m.counter("batch.plan_misses").value == report.plan_summary["plan_cache"]["misses"]
    assert m.counter("batch.gf_bytes").value > 0


def test_batched_compute_charged_to_centers():
    coord = build_system()
    coord.crash_node(3)
    before = {i: agent.compute_seconds for i, agent in coord.agents.items()}
    report = coord.repair(RepairRequest(batched=True))
    charged = {
        i: agent.compute_seconds - before[i]
        for i, agent in coord.agents.items()
        if agent.compute_seconds > before[i]
    }
    assert charged, "batched repair must meter compute on some node"
    assert sum(charged.values()) == pytest.approx(report.compute_s_total)
    # only replacement (ex-spare) nodes decode in the batched CR-style plane
    assert set(charged) <= set(report.replacements.values())


# --------------------------------------------------------------------- #
# multi-node scheduler: pattern groups
# --------------------------------------------------------------------- #
def _multinode_scenario(seed=2023, n_data=24, n_dead=3, k=6, m=3, n_stripes=18):
    from repro.cluster.bandwidth import make_wld
    from repro.cluster.placement import place_stripes_random

    ds = make_wld(n_data + n_dead, "WLD-4x", seed=seed)
    cluster = Cluster(
        [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data + n_dead)]
    )
    code = get_code(k, m)
    layout = place_stripes_random(
        cluster, n_stripes, k, m, rng=seed, candidates=list(range(n_data))
    )
    rng = np.random.default_rng(seed + 13)
    dead = sorted(int(x) for x in rng.choice(n_data, size=n_dead, replace=False))
    cluster.fail_nodes(dead)
    replacement_of = {d: n_data + i for i, d in enumerate(dead)}
    return cluster, code, layout, dead, replacement_of


def test_plan_multi_node_group_patterns_meta_and_jobs():
    cluster, code, layout, dead, repl = _multinode_scenario()
    cache = PlanCache()
    merged, jobs = plan_multi_node(
        cluster, code, layout, dead, repl, group_patterns=True, plan_cache=cache
    )
    groups = merged.meta["pattern_groups"]
    assert groups and sum(len(g["stripes"]) for g in groups) == len(jobs)
    assert all(j.pattern is not None for j in jobs)
    # jobs come out group-major: each pattern forms one contiguous run
    import itertools

    runs = [key for key, _ in itertools.groupby(j.pattern for j in jobs)]
    assert len(runs) == len(set(runs))
    # the cache was warmed with exactly one plan per group
    assert merged.meta["plan_cache"]["misses"] == len(groups)
    assert len(cache) == len(groups)


def test_plan_multi_node_grouped_same_coverage_and_makespan_class():
    """Grouping reorders scheduling but repairs the same stripes with valid
    plans; ungrouped jobs carry no pattern."""
    cluster, code, layout, dead, repl = _multinode_scenario()
    merged_plain, jobs_plain = plan_multi_node(cluster, code, layout, dead, repl)
    merged_grp, jobs_grp = plan_multi_node(
        cluster, code, layout, dead, repl, group_patterns=True
    )
    assert all(j.pattern is None for j in jobs_plain)
    assert sorted(j.stripe_id for j in jobs_plain) == sorted(j.stripe_id for j in jobs_grp)
    t_plain = FluidSimulator(cluster).run(merged_plain.tasks).makespan
    t_grp = FluidSimulator(cluster).run(merged_grp.tasks).makespan
    assert t_grp > 0 and t_plain > 0
