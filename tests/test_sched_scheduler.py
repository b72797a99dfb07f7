"""repro.sched: job lifecycle, admission control, concurrent repair scheduling.

The load-bearing properties, per the design:

* **sequential equivalence** — one submitted job produces bit-identical
  repaired blocks and a makespan equal (to float precision) to a plain
  ``Coordinator.repair`` on a twin system;
* **isolation** — equal-priority jobs with disjoint node footprints finish
  exactly as if each ran alone;
* **weighted sharing** — jobs contending on shared nodes split bandwidth by
  priority weight; the merged scheduler simulation matches a reference
  simulation built independently from the same plans;
* **fault tolerance** — a job whose helpers die mid-repair is re-planned
  through the journal/backoff machinery; an unrecoverable job fails alone.
"""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe, block_name
from repro.faults.schedule import FaultSchedule
from repro.obs.session import Observability
from repro.repair.context import RepairContext
from repro.repair.plan import rename_plan, reweighted
from repro.sched.admission import AdmissionController, AdmissionPolicy
from repro.sched.job import (
    ADMITTED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    _PRIORITY_WEIGHTS,
    RepairJob,
    weight_for,
)
from repro.sched.scheduler import RepairScheduler
from repro.simnet.fluid import FluidSimulator
from repro.repair import SCHEMES
from repro.repair.planner import assign_spares
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def uniform_system(n_data=12, n_spare=4, k=4, m=2, bw=100.0, block_bytes=2048, rack_size=None):
    """A coordinator over identical-bandwidth nodes (timing is symmetric)."""
    nodes = []
    for i in range(n_data):
        rack = i // rack_size if rack_size else 0
        nodes.append(Node(i, bw, bw, rack=rack))
    coord = Coordinator(Cluster(nodes), RSCode(k, m), block_bytes=block_bytes,
                        block_size_mb=16.0, rng=0)
    for j in range(n_spare):
        i = n_data + j
        rack = i // rack_size if rack_size else 0
        coord.add_spare(Node(i, bw, bw, rack=rack))
    return coord


def place_stripe(coord, placement, seed):
    """Encode one random stripe and pin its blocks to ``placement``."""
    k, m = coord.code.k, coord.code.m
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, 256, size=(k, coord.block_bytes), dtype=np.uint8)
    coded = coord.code.encode_stripe(blocks)
    sid = coord.layout.next_id()
    coord.layout.add(Stripe(sid, k, m, list(placement)))
    for b, node in enumerate(placement):
        coord.agents[node].store_block(block_name(sid, b), coded[b])
    return sid


def snapshot_blocks(coord):
    out = {}
    for stripe in coord.layout:
        for b, node in enumerate(stripe.placement):
            out[(stripe.stripe_id, b)] = coord.agents[node].read_block(
                block_name(stripe.stripe_id, b)
            ).copy()
    return out


def assert_bit_exact(coord, originals):
    for stripe in coord.layout:
        for b, node in enumerate(stripe.placement):
            agent = coord.agents[node]
            assert agent.alive
            got = agent.read_block(block_name(stripe.stripe_id, b))
            assert np.array_equal(got, originals[(stripe.stripe_id, b)]), (
                f"stripe {stripe.stripe_id} block {b} differs"
            )


def payload(nbytes, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def wld_system(seed=0, n_data=18, n_spare=4, k=4, m=2, block_bytes=2048):
    """A heterogeneous-bandwidth system (same shape as the coordinator tests)."""
    from repro.cluster.bandwidth import make_wld

    ds = make_wld(n_data + n_spare, "WLD-4x", seed=seed)
    nodes = [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data)]
    coord = Coordinator(Cluster(nodes), RSCode(k, m), block_bytes=block_bytes,
                        block_size_mb=16.0, rng=seed)
    for j in range(n_spare):
        i = n_data + j
        coord.add_spare(Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])))
    return coord


# --------------------------------------------------------------------- #
# RepairJob lifecycle
# --------------------------------------------------------------------- #
def test_job_lifecycle_legal_path():
    job = RepairJob("job0")
    assert job.state == QUEUED
    job.transition(ADMITTED)
    job.transition(RUNNING)
    job.transition(DONE)
    assert job.state == DONE


@pytest.mark.parametrize("path", [
    [RUNNING],                      # queued cannot skip admission
    [ADMITTED, DONE],               # admitted cannot skip running
    [ADMITTED, RUNNING, DONE, FAILED],  # done is terminal
    [FAILED, ADMITTED],             # failed is terminal
])
def test_job_lifecycle_illegal_edges(path):
    job = RepairJob("job0")
    with pytest.raises(ValueError, match="illegal transition"):
        for state in path:
            job.transition(state)


def test_job_validation():
    with pytest.raises(ValueError, match="unknown priority"):
        RepairJob("j", priority="urgent")
    with pytest.raises(ValueError, match="weight"):
        RepairJob("j", weight=0.0)
    with pytest.raises(ValueError, match="arrival_s"):
        RepairJob("j", arrival_s=-1.0)


def test_priority_weights():
    assert weight_for("foreground") == _PRIORITY_WEIGHTS["foreground"] == 4.0
    assert weight_for("normal") == 1.0
    assert weight_for("background") == 0.25
    assert weight_for("background", override=2.5) == 2.5
    with pytest.raises(ValueError):
        weight_for("nope")
    with pytest.raises(ValueError):
        weight_for("normal", override=-1.0)
    # admission rank: foreground before normal before background, FIFO within
    fg = RepairJob("a", priority="foreground", seq=9)
    bg = RepairJob("b", priority="background", seq=0)
    n1 = RepairJob("c", priority="normal", seq=1)
    n2 = RepairJob("d", priority="normal", seq=2)
    ranked = sorted([bg, n2, fg, n1], key=RepairJob.priority_rank)
    assert [j.job_id for j in ranked] == ["a", "c", "d", "b"]


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
def test_admission_policy_validation():
    with pytest.raises(ValueError, match="max_inflight_per_node"):
        AdmissionPolicy(max_inflight_per_node=0)
    with pytest.raises(ValueError, match="max_inflight_total"):
        AdmissionPolicy(max_inflight_total=-1)
    AdmissionPolicy(max_inflight_per_node=None)  # uncapped is fine


def test_admission_controller_caps():
    cluster = Cluster([Node(i, 1.0, 1.0, rack=i // 2) for i in range(6)])
    ctl = AdmissionController(
        cluster,
        AdmissionPolicy(max_inflight_per_node=1, max_inflight_per_rack=2,
                        max_inflight_total=3),
    )
    j = [RepairJob(f"j{i}") for i in range(5)]
    assert ctl.try_admit(j[0], {0, 1})
    assert not ctl.try_admit(j[1], {1, 2}), "node 1 is at its per-node cap"
    assert ctl.try_admit(j[1], {2, 3})
    # rack 0 = nodes {0,1} already hosts j0; rack cap 2 still allows one more
    assert ctl.try_admit(j[2], {4})
    assert ctl.inflight_total == 3
    assert not ctl.try_admit(j[3], {5}), "total cap reached"
    ctl.reset_wave()
    assert ctl.try_admit(j[3], {5}), "a new wave starts from zero"


def test_admission_rack_cap():
    cluster = Cluster([Node(i, 1.0, 1.0, rack=0) for i in range(4)])
    ctl = AdmissionController(cluster, AdmissionPolicy(
        max_inflight_per_node=None, max_inflight_per_rack=1))
    assert ctl.try_admit(RepairJob("a"), {0})
    assert not ctl.try_admit(RepairJob("b"), {1}), "same rack, cap 1"


# --------------------------------------------------------------------- #
# sequential equivalence: one job == Coordinator.repair
# --------------------------------------------------------------------- #
def test_single_job_matches_plain_repair():
    a = wld_system()
    a.write("f1", payload(120_000, 1))
    counts = a.layout.blocks_per_node()
    victim = max(counts, key=counts.get)
    a.crash_node(victim)
    report_a = a.repair(RepairRequest())

    b = wld_system()
    b.write("f1", payload(120_000, 1))
    b.crash_node(victim)
    report_b = b.repair([RepairRequest()]).report
    (job,) = report_b.jobs

    assert job.state == DONE
    assert report_b.waves == 1
    assert report_b.makespan_s == pytest.approx(report_a.makespan_s, abs=1e-9)
    assert job.per_stripe_transfer_s == pytest.approx(report_a.per_stripe_transfer_s, abs=1e-9)
    assert job.blocks_recovered == report_a.blocks_recovered
    assert job.bytes_on_wire_mb_model == pytest.approx(report_a.bytes_on_wire_mb_model)
    # placements identical, repaired bytes bit-identical
    for sa, sb in zip(a.layout, b.layout):
        assert list(sa.placement) == list(sb.placement)
        for blk, node in enumerate(sa.placement):
            name = block_name(sa.stripe_id, blk)
            assert np.array_equal(
                a.agents[node].store.get(name), b.agents[node].store.get(name)
            )
    assert b.read("f1") == payload(120_000, 1)


def test_empty_queue_is_a_noop():
    coord = uniform_system()
    report = coord.sched.run_pending()
    assert report.waves == 0
    assert report.jobs == []
    assert report.makespan_s == 0.0


def test_job_with_nothing_to_repair_completes_trivially():
    coord = uniform_system()
    place_stripe(coord, range(6), seed=1)
    report = coord.repair([RepairRequest()]).report  # no dead nodes anywhere
    (job,) = report.jobs
    assert job.state == DONE
    assert job.finish_s == 0.0
    assert job.stripes_repaired == []
    assert job.blocks_recovered == 0


# --------------------------------------------------------------------- #
# isolation: disjoint footprints run as if alone
# --------------------------------------------------------------------- #
def _disjoint_pair_system():
    coord = uniform_system(n_data=12, n_spare=4)
    s0 = place_stripe(coord, [0, 1, 2, 3, 4, 5], seed=1)
    s1 = place_stripe(coord, [6, 7, 8, 9, 10, 11], seed=2)
    coord.crash_node(0)
    coord.crash_node(6)
    return coord, s0, s1


def test_disjoint_equal_priority_jobs_finish_as_if_alone():
    coord, s0, s1 = _disjoint_pair_system()
    report = coord.repair(
        [RepairRequest(stripes=[s0]), RepairRequest(stripes=[s1])]
    ).report
    j0, j1 = report.jobs
    assert report.waves == 1 and j0.state == DONE and j1.state == DONE

    # twin A repairs only stripe 0; twin B only stripe 1
    alone = {}
    for sid in (s0, s1):
        twin, t0, t1 = _disjoint_pair_system()
        (job,) = twin.repair(RepairRequest(stripes=[sid])).jobs
        alone[sid] = job.finish_s
    assert j0.finish_s == pytest.approx(alone[s0], abs=1e-9)
    assert j1.finish_s == pytest.approx(alone[s1], abs=1e-9)


# --------------------------------------------------------------------- #
# weighted sharing on a contended footprint
# --------------------------------------------------------------------- #
def test_weighted_jobs_match_reference_merged_simulation():
    """4 jobs on the same nodes: the scheduler's merged run must equal a
    reference merged simulation built directly from the planners, and the
    weight-4 job must beat the weight-1 jobs."""
    def build():
        coord = uniform_system(n_data=6, n_spare=2)
        sids = [place_stripe(coord, range(6), seed=10 + i) for i in range(4)]
        coord.crash_node(0)
        return coord, sids

    coord, sids = build()
    sch = RepairScheduler(coord, AdmissionPolicy(max_inflight_per_node=None))
    coord.sched = sch
    priorities = ["foreground", "normal", "normal", "normal"]
    report = coord.repair(
        [
            RepairRequest(stripes=[sid], priority=pri)
            for sid, pri in zip(sids, priorities)
        ]
    ).report
    jobs = report.jobs
    assert report.waves == 1
    assert all(j.state == DONE for j in jobs)

    # reference: identical contexts/plans merged by hand, simulated directly
    ref, ref_sids = build()
    replacement_of = assign_spares(ref.cluster, [0], ref.free_spares())
    merged = []
    for i, sid in enumerate(ref_sids):
        stripe = ref.layout[sid]
        failed = stripe.failed_blocks([0])
        ctx = RepairContext(
            cluster=ref.cluster, code=ref.code, stripe=stripe,
            failed_blocks=failed,
            new_nodes=[replacement_of[0]] * len(failed),
            block_size_mb=ref.block_size_mb,
        )
        center = ref.center_scheduler.pick(ctx.new_nodes)
        plan = SCHEMES["hmbr"](ctx, center)
        plan = reweighted(plan, weight_for(priorities[i]))
        merged.extend(rename_plan(plan, f"job{i}:p0:").tasks)
    sim = FluidSimulator(ref.cluster).run(merged)
    for i, job in enumerate(jobs):
        assert job.finish_s == pytest.approx(sim.finish_of(f"job{i}"), abs=1e-9)

    # the foreground job outruns every weight-1 competitor; the three
    # symmetric normal jobs tie
    fg, others = jobs[0], jobs[1:]
    assert all(fg.finish_s < o.finish_s for o in others)
    assert max(o.finish_s for o in others) == pytest.approx(
        min(o.finish_s for o in others), abs=1e-9
    )
    assert_all_repaired(coord)


def test_each_plans_finish_is_the_latest_of_its_own_tasks():
    """A wave reads each plan's finish off the ids ``_sim_tasks`` gave its
    tasks: the value ``finish_of_each`` finds by scanning every id of the
    merged run for the plan's namespace."""
    coord = uniform_system(n_data=6, n_spare=2)
    for i in range(3):
        place_stripe(coord, range(6), seed=30 + i)
    coord.crash_node(0)
    rnd = coord.plan_round("hmbr", coord.layout.stripes_with_failures([0]))
    jobs = [
        RepairJob(job_id="job1", weight=weight_for("background"), arrival_s=0.25),
        RepairJob(job_id="job2"),
    ]
    owned, tasks = [], []
    for job in jobs:
        tasks += coord.sched._sim_tasks(job, rnd.plans, owned)
    assert [sid for sid, _ in owned] == [sid for sid, _ in rnd.plans] * 2
    sim = FluidSimulator(coord.cluster).run(tasks)
    prefixes = [f"{job.job_id}:p{i}" for job in jobs for i in range(len(rnd.plans))]
    latest = sim.finish_of_each(prefixes)
    got = [max(sim.finish_times[t] for t in ids) for _, ids in owned]
    assert got == [latest[p] for p in prefixes]


def assert_all_repaired(coord):
    dead = coord.cluster.dead_ids()
    assert coord.layout.stripes_with_failures(dead) == {}


# --------------------------------------------------------------------- #
# the estimate's rounds, handed to the real wave
# --------------------------------------------------------------------- #
def _storm_system(seed=71, policy=None):
    """Six stripes on a heterogeneous cluster, one node down."""
    coord = wld_system(seed=seed)
    if policy is not None:
        coord.sched = RepairScheduler(coord, policy)
    coord.write("f", payload(6 * coord.code.k * 2048, seed=seed))
    coord.crash_node(coord.layout.stripes[0].placement[0])
    return coord


def _storm_requests(coord):
    """Two background storm jobs over disjoint halves of the affected stripes."""
    sids = sorted(coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    assert len(sids) >= 2
    half = len(sids) // 2
    return (
        RepairRequest(stripes=sids[:half], priority="background"),
        RepairRequest(stripes=sids[half:], priority="background"),
    )


def _counting_plan_rounds(monkeypatch) -> list:
    calls = []
    real = Coordinator.plan_round

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Coordinator, "plan_round", counting)
    return calls


def _run_state(coord, report) -> tuple:
    """Everything a scheduler run decides or leaves behind."""
    jobs = [
        (j.job_id, j.state, j.wave, j.admitted_s, j.finish_s, j.stripes_repaired,
         j.blocks_recovered, j.bytes_on_wire_mb_model, j.per_stripe_transfer_s)
        for j in report.jobs
    ]
    stored = {
        (nid, name): agent.store.get(name).tobytes()
        for nid, agent in coord.agents.items()
        for name in agent.store.names()
    }
    return (
        jobs, report.waves, report.makespan_s,
        {s.stripe_id: list(s.placement) for s in coord.layout},
        coord.center_scheduler.snapshot(), coord.bus.total_bytes(), stored,
    )


def test_an_unchanged_estimate_is_dispatched_without_planning_again(monkeypatch):
    handed, fresh = _storm_system(), _storm_system()
    reqs = _storm_requests(handed)
    eta = handed.sched.estimate_finish_s(reqs)
    assert len(eta.rounds) == 2
    calls = _counting_plan_rounds(monkeypatch)
    a = handed.sched.run_requests(reqs, eta=eta)
    assert calls == [] and eta.rounds == []
    b = fresh.sched.run_requests(reqs)
    assert len(calls) == 2
    assert _run_state(handed, a) == _run_state(fresh, b)
    assert_all_repaired(handed)


def _crash_a_survivor(coord):
    coord.crash_node(coord.layout.stripes[0].placement[1])


def _queue_a_job_ahead(coord):
    sid = min(coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    coord.sched.submit(stripes=[sid], priority="foreground")


def _halve_an_uplink(coord):
    node = coord.cluster[coord.layout.stripes[0].placement[2]]
    node.uplink /= 2


def _commit_a_metadata_repair(coord):
    sid = min(coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    coord.plan_repair("hmbr", stripes=[sid], commit=True)


def _advance_the_center_scheduler(coord):
    coord.center_scheduler.pick(coord.free_spares())


_MISMATCHES = {
    "center-pick": _advance_the_center_scheduler,
    "node-crash": _crash_a_survivor,
    "job-queued-ahead": _queue_a_job_ahead,
    "bandwidth-change": _halve_an_uplink,
    "committed-plan-repair": _commit_a_metadata_repair,
}


@pytest.mark.parametrize("change", sorted(_MISMATCHES))
def test_a_changed_input_plans_afresh_like_a_run_without_an_estimate(change, monkeypatch):
    handed, fresh = _storm_system(), _storm_system()
    reqs = _storm_requests(handed)
    eta = handed.sched.estimate_finish_s(reqs)
    assert len(eta.rounds) == 2
    for coord in (handed, fresh):
        _MISMATCHES[change](coord)
    calls = _counting_plan_rounds(monkeypatch)
    a = handed.sched.run_requests(reqs, eta=eta)
    n_handed = len(calls)
    b = fresh.sched.run_requests(reqs)
    assert n_handed == len(calls) - n_handed > 0, "no handed round was taken"
    assert eta.rounds == []
    assert _run_state(handed, a) == _run_state(fresh, b)


def test_a_job_deferred_to_wave_two_plans_afresh(monkeypatch):
    """The estimate ignores admission caps; the job a cap defers finds the
    center scheduler moved on by wave 1 and plans again, while the wave-1
    job still takes its round."""
    policy = AdmissionPolicy(max_inflight_total=1)
    handed, fresh = _storm_system(policy=policy), _storm_system(policy=policy)
    reqs = _storm_requests(handed)
    eta = handed.sched.estimate_finish_s(reqs)
    calls = _counting_plan_rounds(monkeypatch)
    a = handed.sched.run_requests(reqs, eta=eta)
    assert a.waves == 2 and len(calls) == 1
    b = fresh.sched.run_requests(reqs)
    assert len(calls) == 3
    assert _run_state(handed, a) == _run_state(fresh, b)


def test_eta_takes_only_an_estimate():
    coord = _storm_system()
    with pytest.raises(TypeError, match="estimate_finish_s"):
        coord.sched.run_requests((RepairRequest(),), eta={"finish_s": {}})


# --------------------------------------------------------------------- #
# waves, caps, and priority ordering
# --------------------------------------------------------------------- #
def test_total_cap_serializes_jobs_and_respects_priority():
    coord = uniform_system(n_data=6, n_spare=2)
    sids = [place_stripe(coord, range(6), seed=20 + i) for i in range(2)]
    coord.crash_node(0)
    sch = RepairScheduler(coord, AdmissionPolicy(max_inflight_total=1))
    coord.sched = sch
    jn = sch.submit(stripes=[sids[0]])                      # normal, submitted first
    jf = sch.submit(stripes=[sids[1]], priority="foreground")
    report = sch.run_pending()
    assert report.waves == 2
    assert (jf.wave, jn.wave) == (1, 2), "foreground admits first despite FIFO order"
    assert jn.queue_wait_waves == 1 and jf.queue_wait_waves == 0
    # wave 2 starts where wave 1 ended: the global clock is cumulative
    assert jn.finish_s > jf.finish_s
    assert jn.admitted_s == pytest.approx(jf.finish_s, abs=1e-9)
    assert_all_repaired(coord)


def test_per_stripe_landings_share_the_global_clock():
    """A job admitted in wave 2 reports its stripes' landings on the clock
    ``finish_s`` and ``makespan_s`` use, not from its wave's start."""
    coord = uniform_system(n_data=6, n_spare=2)
    sids = [place_stripe(coord, range(6), seed=20 + i) for i in range(2)]
    coord.crash_node(0)
    coord.sched = RepairScheduler(coord, AdmissionPolicy(max_inflight_total=1))
    result = coord.repair([RepairRequest(stripes=[sid]) for sid in sids])
    assert result.report.waves == 2
    assert max(result.per_stripe_transfer_s.values()) == result.makespan_s
    for job in result.report.jobs:
        assert job.per_stripe_transfer_s
        for t in job.per_stripe_transfer_s.values():
            assert job.admitted_s <= t <= job.finish_s
        assert job.finish_s == max(job.per_stripe_transfer_s.values())


def test_per_node_cap_defers_overlapping_jobs():
    coord = uniform_system(n_data=6, n_spare=2)
    sids = [place_stripe(coord, range(6), seed=30 + i) for i in range(3)]
    coord.crash_node(0)
    sch = RepairScheduler(coord, AdmissionPolicy(max_inflight_per_node=2))
    coord.sched = sch
    jobs = [sch.submit(stripes=[sid]) for sid in sids]
    report = sch.run_pending()
    assert report.waves == 2
    assert sorted(j.wave for j in jobs) == [1, 1, 2]
    assert_all_repaired(coord)


def test_duplicate_stripe_claims_resolve_first_come():
    """Two jobs naming the same stripe: the first repairs it, the second
    completes without redoing the work."""
    coord = uniform_system(n_data=6, n_spare=2)
    sid = place_stripe(coord, range(6), seed=40)
    coord.crash_node(0)
    j0, j1 = coord.repair(
        [RepairRequest(stripes=[sid]), RepairRequest(stripes=[sid])]
    ).report.jobs
    assert j0.state == DONE and j0.stripes_repaired == [sid]
    assert j1.state == DONE and j1.stripes_repaired == []
    assert_all_repaired(coord)


def test_arrival_delay_gates_a_jobs_flows():
    coord = uniform_system(n_data=6, n_spare=2)
    sid = place_stripe(coord, range(6), seed=50)
    coord.crash_node(0)
    report = coord.repair(RepairRequest(stripes=[sid], arrival_s=3.0)).report
    (job,) = report.jobs

    twin = uniform_system(n_data=6, n_spare=2)
    tsid = place_stripe(twin, range(6), seed=50)
    twin.crash_node(0)
    (tjob,) = twin.repair(RepairRequest(stripes=[tsid])).jobs

    assert job.finish_s == pytest.approx(3.0 + tjob.finish_s, abs=1e-9)
    assert report.makespan_s >= 3.0


# --------------------------------------------------------------------- #
# fault-tolerant scheduling
# --------------------------------------------------------------------- #
def test_jobs_survive_helper_death_via_replan():
    coord = wld_system(n_spare=6)
    coord.write("f1", payload(120_000, 2))
    originals = snapshot_blocks(coord)
    counts = coord.layout.blocks_per_node()
    victim = max(counts, key=counts.get)
    helper = next(n for n in sorted(counts) if n != victim)
    coord.crash_node(victim)
    sids = sorted(coord.layout.stripes_with_failures(coord.cluster.dead_ids()))
    half = len(sids) // 2
    faults = FaultSchedule.from_tuples([(0.0005, "kill", helper)])
    report = coord.repair(
        [
            RepairRequest(stripes=sids[:half], faults=faults),
            RepairRequest(stripes=sids[half:]),
        ]
    ).report
    j0, j1 = report.jobs
    assert j0.state == DONE and j1.state == DONE
    assert_bit_exact_surviving(coord, originals)
    assert coord.read("f1") == payload(120_000, 2)
    assert j0.blocks_recovered + j1.blocks_recovered >= len(sids)


def assert_bit_exact_surviving(coord, originals):
    """Every block whose stripe was repaired (node alive) matches the
    original bytes; blocks orphaned on dead nodes are skipped."""
    for stripe in coord.layout:
        for b, node in enumerate(stripe.placement):
            agent = coord.agents[node]
            if not agent.alive:
                continue
            name = block_name(stripe.stripe_id, b)
            if not agent.store.has(name):
                continue
            assert np.array_equal(
                agent.read_block(name), originals[(stripe.stripe_id, b)]
            )


def test_unrecoverable_job_fails_without_sinking_its_peers():
    coord = uniform_system(n_data=12, n_spare=4)
    doomed = place_stripe(coord, [0, 1, 2, 3, 4, 5], seed=60)
    healthy = place_stripe(coord, [6, 7, 8, 9, 10, 11], seed=61)
    coord.crash_node(0)
    coord.crash_node(6)
    # two more of the doomed stripe's nodes die before any transfer: three
    # lost blocks with m=2 is unrecoverable
    faults = FaultSchedule.from_tuples([(0.0, "kill", 1), (0.0, "kill", 2)])
    report = coord.repair(
        [
            RepairRequest(stripes=[doomed], faults=faults),
            RepairRequest(stripes=[healthy]),
        ]
    ).report
    j_doomed, j_ok = report.jobs
    assert j_doomed.state == FAILED
    assert "StripeUnrecoverable" in j_doomed.error
    assert j_ok.state == DONE and j_ok.stripes_repaired == [healthy]
    assert len(report.failed) == 1 and len(report.done) == 1


# --------------------------------------------------------------------- #
# coordinator facade + observability
# --------------------------------------------------------------------- #
def test_sched_property_is_lazy_and_sticky():
    coord = uniform_system()
    sch = coord.sched
    assert coord.sched is sch
    job = sch.submit(stripes=[])
    assert sch.jobs == [job] and sch.queue_depth == 1


def test_obs_spans_and_metrics():
    coord = uniform_system(n_data=6, n_spare=2)
    sids = [place_stripe(coord, range(6), seed=70 + i) for i in range(2)]
    coord.crash_node(0)
    obs = Observability().attach(coord)
    report = coord.repair([RepairRequest(stripes=[sid]) for sid in sids]).report

    snap = obs.metrics.snapshot()
    assert snap["counters"]["sched.jobs_submitted"] == 2
    assert snap["counters"]["sched.jobs_admitted"] == 2
    assert snap["counters"]["sched.jobs_done"] == 2
    assert snap["counters"].get("sched.jobs_failed", 0) == 0
    assert snap["counters"]["sched.waves"] == report.waves
    assert snap["gauges"]["sched.queue_depth"] == 0
    assert snap["histograms"]["sched.job_makespan_s"]["count"] == 2

    spans = obs.tracer.find(cat="sched")
    names = {s.name for s in spans}
    assert "sched.run_pending" in names
    assert "sched.wave:1" in names
    assert {"sched.job:job0", "sched.job:job1"} <= names
    # per-job sim-domain spans cover [admitted, finish] on the global clock
    sim_spans = {s.name: s for s in obs.tracer.find(cat="sched.sim")}
    for job in report.jobs:
        span = sim_spans[f"sched.job:{job.job_id}"]
        assert span.t0 == pytest.approx(job.admitted_s)
        assert span.t1 == pytest.approx(job.finish_s)


def test_report_aggregates():
    coord = uniform_system(n_data=6, n_spare=2)
    sids = [place_stripe(coord, range(6), seed=80 + i) for i in range(2)]
    coord.crash_node(0)
    report = coord.repair([RepairRequest(stripes=[sid]) for sid in sids]).report
    assert sum(j.blocks_recovered for j in report.jobs) == 2
    assert all(j.bytes_on_wire_mb_model > 0 for j in report.jobs)
    assert coord.sched.queue_depth == 0
    assert [j.job_id for j in report.jobs] == ["job0", "job1"]
    assert report.makespan_s == pytest.approx(max(j.finish_s for j in report.jobs))
