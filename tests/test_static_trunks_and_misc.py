"""Static-evaluator trunk support plus assorted edge-case coverage."""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.repair.plan import RepairPlan, SliceOp
from repro.simnet.flows import Flow
from repro.simnet.fluid import FluidSimulator
from repro.simnet.static import StaticShareEvaluator
from repro.system.executor import PlanExecutor, Workspace


def trunked_cluster():
    cl = Cluster(
        [
            Node(0, 100, 100, rack=0),
            Node(1, 100, 100, rack=0),
            Node(2, 100, 100, rack=1),
            Node(3, 100, 100, rack=1),
        ]
    )
    cl.set_all_rack_trunks(30.0)
    return cl


def test_static_evaluator_honors_trunks():
    cl = trunked_cluster()
    flows = [Flow("a", 0, 2, 30.0), Flow("b", 1, 3, 30.0)]
    static = StaticShareEvaluator(cl).run(flows)
    fluid = FluidSimulator(cl).run(flows)
    # both senders share the 30 MB/s rack-0 up-trunk: 15 each -> 2 s
    assert static.makespan == pytest.approx(2.0)
    assert fluid.makespan == pytest.approx(2.0)


def test_static_inner_rack_ignores_trunk():
    cl = trunked_cluster()
    res = StaticShareEvaluator(cl).run([Flow("a", 0, 1, 50.0)])
    assert res.makespan == pytest.approx(0.5)


def test_workspace_custom_word_size():
    ws = Workspace(word_bytes=16)
    ws.put(0, "b", np.arange(64, dtype=np.uint8))
    plan = RepairPlan("test", [], [SliceOp(0, "third", "b", 0.0, 1 / 3)], {})
    PlanExecutor(ws).execute(plan)
    assert ws.get(0, "third").size == 16  # 64/3 B rounded to a 16-byte word
    with pytest.raises(ValueError):
        ws.put(0, "bad", np.zeros(24, dtype=np.uint8))  # not 16-aligned


def test_workspace_gf16_alignment():
    from repro.gf.field import GF

    ws = Workspace(field_=GF(16))
    ws.put(0, "b", np.arange(32, dtype=np.uint16))  # 64 bytes, aligned
    with pytest.raises(ValueError):
        ws.put(0, "bad", np.arange(3, dtype=np.uint16))  # 6 bytes


def test_zero_width_stripe_single_group_lrc():
    """l = 1 degenerates to one global XOR parity + g RS parities."""
    from repro.ec.lrc import LRCCode

    code = LRCCode(4, 1, 1)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(4, 32), dtype=np.uint8)
    stripe = code.encode_stripe(data)
    avail = {i: stripe[i] for i in range(code.n) if i != 2}
    assert np.array_equal(code.repair(2, avail), stripe[2])


def test_flow_tag_defaults_and_hops():
    f = Flow("x", 0, 1, 1.0)
    assert f.tag == ""
    assert f.hops == ((0, 1),)


def test_simulation_result_finish_of_helpers(fig2):
    from repro.repair.centralized import plan_centralized

    plan = plan_centralized(fig2)
    res = FluidSimulator(fig2.cluster).run(plan.tasks)
    prefix = plan.tasks[0].task_id.split(":fetch")[0]
    assert res.finish_of(prefix) == pytest.approx(res.makespan)
    with pytest.raises(KeyError):
        res.finish_of("nonexistent:")
    fetch_finish = res.tag_finish(plan.tasks, plan.tasks[0].tag)
    assert fetch_finish <= res.makespan
    with pytest.raises(KeyError):
        res.tag_finish(plan.tasks, "missing-tag")


def test_finish_of_matches_namespaces_not_bare_prefixes():
    """Regression: ``finish_of("cr")`` must not collect ``cr2:...`` tasks.

    The old implementation matched on ``startswith(tag)``, so a shorter
    namespace silently absorbed every longer namespace sharing its spelling
    and reported an inflated finish time."""
    from repro.simnet.fluid import SimulationResult

    res = SimulationResult(
        makespan=9.0,
        finish_times={"cr:fetch": 1.0, "cr": 2.0, "cr2:fetch": 9.0, "cr_local:x": 5.0},
        start_times={},
        bytes_sent={},
        bytes_received={},
        cross_rack_mb=0.0,
        n_rate_updates=0,
    )
    assert res.finish_of("cr") == 2.0, "cr2:/cr_local: must not leak into cr"
    assert res.finish_of("cr2") == 9.0
    assert res.finish_of("cr_local") == 5.0
    # explicit trailing delimiter: children only, not the bare "cr" task
    assert res.finish_of("cr:") == 1.0
    with pytest.raises(KeyError):
        res.finish_of("c")  # a prefix of a namespace is not that namespace
