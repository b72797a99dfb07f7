"""Public-API surface tests: the README's code must literally work."""

import numpy as np
import pytest

import repro


def test_version_and_exports():
    assert repro.__version__
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_block():
    from repro import FluidSimulator, build_scenario, plan_for

    sc = build_scenario(k=64, m=8, f=8, wld="WLD-8x")
    times = {}
    for scheme in ("cr", "ir", "hmbr"):
        plan = plan_for(sc.ctx, scheme)
        times[scheme] = FluidSimulator(sc.cluster).run(plan.tasks).makespan
    assert times["hmbr"] <= min(times["cr"], times["ir"]) + 1e-9


def test_readme_verification_block():
    from repro import FluidSimulator, PlanExecutor, Workspace, build_scenario, plan_for

    sc = build_scenario(k=8, m=4, f=2, wld="WLD-8x")
    plan = plan_for(sc.ctx, "hmbr")
    data = np.random.default_rng(0).integers(0, 256, (8, 4096), dtype=np.uint8)
    stripe = sc.ctx.code.encode_stripe(data)
    ws = Workspace()
    ws.load_stripe(sc.ctx.stripe, stripe)
    for node in sc.dead_nodes:
        ws.drop_node(node)
    PlanExecutor(ws).execute(
        plan, verify_against={b: stripe[b] for b in sc.ctx.failed_blocks}
    )


def test_subpackage_exports_importable():
    import repro.analysis as analysis
    import repro.cluster as cluster
    import repro.ec as ec
    import repro.faults as faults
    import repro.gf as gf
    import repro.obs as obs
    import repro.repair as repair
    import repro.sched as sched
    import repro.simnet as simnet
    import repro.system as system

    modules = (
        analysis, cluster, ec, faults, gf, obs, repair, sched, simnet, system,
    )
    for module in modules:
        assert module.__all__, f"{module.__name__} must declare __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_api_surface_matches_golden():
    """The pinned surface check CI runs must pass from the suite too."""
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "check_api_surface.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_request_facade_quickstart():
    """The docs/API.md headline snippet must literally work."""
    from repro import Coordinator, RepairRequest, RepairResult  # noqa: F401


def test_experiments_are_deterministic():
    """Same seeds -> byte-identical rows (EXPERIMENTS.md reproducibility)."""
    from repro.experiments.exp1 import run

    a = run(grid=[(6, 3, 2)], wlds=["WLD-4x"], seeds=(2023,))
    b = run(grid=[(6, 3, 2)], wlds=["WLD-4x"], seeds=(2023,))
    assert a == b


def test_scenario_builder_deterministic():
    from repro import build_scenario

    s1 = build_scenario(12, 4, 2, seed=7)
    s2 = build_scenario(12, 4, 2, seed=7)
    assert s1.dead_nodes == s2.dead_nodes
    assert np.array_equal(s1.dataset.uplinks, s2.dataset.uplinks)
