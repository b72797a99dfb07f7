"""The small twin-able system (`build_system` / `snapshot`) the request
and data-plane tests share, plus where the healthy round's fused
combines are metered and traced.

Removed with the coordinator's batched bypass, and where each checked
behaviour lives now that `batched` selects nothing:

* `test_batched_repair_bit_exact_with_per_stripe[hmbr|cr|ir]`,
  `test_batched_repair_verifies_stripes`: batched and per-stripe are the
  same code; same stores, makespan and clean scrub for every scheme x
  `batched` is `tests/test_request_api.py::
  test_every_request_moves_its_plans_bytes`.
* `test_batched_repair_bit_exact_after_fault_storm`: repairs following a
  storm are checked bit-exact by the chaos harness.
* `test_plan_cache_reused_across_storms`: the round no longer consults the
  `PlanCache`; its hit/miss/eviction accounting is `tests/test_batch_repair.py`.
* `test_batched_repair_emits_obs_spans_and_metrics`: `dispatch-batch` is
  gone; the `batch:*` spans and `batch.*` counters of `repair_items` are
  `tests/test_batch_repair.py::test_engine_obs_spans_and_metrics`, the
  round's own spans `test_round_emits_one_dispatch_span_per_stripe` below.
* `test_plan_multi_node_group_patterns_meta_and_jobs`,
  `test_plan_multi_node_grouped_same_coverage_and_makespan_class`: the
  `group_patterns` / `plan_cache` parameters were deleted; coverage and
  centers of `plan_multi_node` are `tests/test_repair_multinode.py`.
* `test_coordinator_caches_and_closes_engines` (`tests/test_parallel_engine.py`):
  the coordinator owns no pool any more (`Coordinator.close` and its engine
  cache are deleted), and since PR 20 neither does anything else: the process
  pool is gone and `tests/test_repo_artifacts.py::
  test_deleted_data_plane_names_are_gone` pins that nothing under `src/`
  imports `multiprocessing`, so every round's combines are inline by construction.
"""

import numpy as np
import pytest

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import get_code
from repro.obs import Observability
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


def test_round_emits_one_dispatch_span_per_stripe():
    coord = build_system()
    obs = Observability()
    obs.attach(coord)
    coord.crash_node(3)
    report = coord.repair(RepairRequest(scheme="cr"))
    stripes = obs.tracer.find(cat="dispatch")
    assert [s.name for s in stripes] == [f"stripe:{sid}" for sid in report.stripes_repaired]
    # CR: one CombineOp, so one compute span, per lost block — however many
    # of a stripe's combines shared a kernel call
    assert len(obs.tracer.find(cat="compute")) == report.blocks_recovered


def test_cr_compute_is_charged_to_the_centers():
    coord = build_system()
    coord.crash_node(3)
    before = {i: agent.compute_seconds for i, agent in coord.agents.items()}
    report = coord.repair(RepairRequest(scheme="cr"))
    charged = {
        i: agent.compute_seconds - before[i]
        for i, agent in coord.agents.items()
        if agent.compute_seconds > before[i]
    }
    assert charged, "a repair must meter compute on some node"
    assert sum(charged.values()) == pytest.approx(report.compute_s_total)
    # CR decodes at the center, and centers are replacement (ex-spare) nodes
    assert set(charged) <= set(report.replacements.values())
