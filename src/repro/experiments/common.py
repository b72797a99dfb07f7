"""Shared scenario construction and scheme dispatch for all experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.bandwidth import BandwidthDataset, make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import get_code
from repro.ec.stripe import Stripe
from repro.repair import planner
from repro.repair.context import RepairContext
from repro.repair.plan import RepairPlan
from repro.simnet.fluid import FluidSimulator


@dataclass
class Scenario:
    """A single-stripe repair scenario ready for planning."""

    ctx: RepairContext
    cluster: Cluster
    dataset: BandwidthDataset
    dead_nodes: list[int]


def build_scenario(
    k: int,
    m: int,
    f: int,
    wld: str | float = "WLD-8x",
    seed: int = 2023,
    block_size_mb: float = 64.0,
    rack_size: int | None = None,
    cross_factor: float | None = None,
    distribution: str = "normal",
    survivor_policy: str = "first",
) -> Scenario:
    """Build the canonical experiment scenario.

    Nodes ``0..k+m-1`` host the stripe; nodes ``k+m..k+m+f-1`` are the new
    nodes (same instance pool, bandwidths drawn from the same dataset, as on
    EC2).  ``f`` random stripe nodes are killed.  With ``rack_size`` set,
    racks are filled contiguously and, with ``cross_factor``, each node's
    cross-rack bandwidth is capped at ``1/cross_factor`` of its link rate
    (the paper's ``tc`` shaping; inner-rack traffic is unrestricted).
    """
    if f > m:
        raise ValueError(f"f={f} cannot exceed m={m}")
    n_total = k + m + f
    ds = make_wld(n_total, wld, distribution=distribution, seed=seed)
    nodes = []
    for i in range(n_total):
        rack = i // rack_size if rack_size else 0
        up, down = float(ds.uplinks[i]), float(ds.downlinks[i])
        nodes.append(
            Node(
                i,
                uplink=up,
                downlink=down,
                rack=rack,
                cross_uplink=up / cross_factor if cross_factor else None,
                cross_downlink=down / cross_factor if cross_factor else None,
            )
        )
    cluster = Cluster(nodes)
    code = get_code(k, m)
    stripe = Stripe(0, k, m, list(range(k + m)))
    rng = np.random.default_rng(seed + 7919)
    dead = sorted(int(x) for x in rng.choice(k + m, size=f, replace=False))
    cluster.fail_nodes(dead)
    failed_blocks = dead  # placement is identity: block i on node i
    new_nodes = list(range(k + m, k + m + f))
    ctx = RepairContext(
        cluster=cluster,
        code=code,
        stripe=stripe,
        failed_blocks=failed_blocks,
        new_nodes=new_nodes,
        block_size_mb=block_size_mb,
        survivor_policy=survivor_policy,
    )
    return Scenario(ctx=ctx, cluster=cluster, dataset=ds, dead_nodes=dead)


def plan_for(ctx: RepairContext, scheme: str) -> RepairPlan:
    """Plan a repair with the named scheme of
    :data:`repro.repair.planner.SCHEMES`, at its planner's default center."""
    planner.check_scheme(scheme)
    return planner.SCHEMES[scheme](ctx, None)


def transfer_time(ctx: RepairContext, scheme: str) -> float:
    """Simulated repair transfer time of one scheme on one scenario."""
    plan = plan_for(ctx, scheme)
    return FluidSimulator(ctx.cluster).run(plan.tasks).makespan


def format_table(rows: list[dict], columns: list[str] | None = None, floatfmt: str = ".3f") -> str:
    """Render rows as a fixed-width text table (no external deps)."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    def cell(v):
        if isinstance(v, float):
            return f"{v:{floatfmt}}"
        return str(v)
    table = [[cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(columns)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]
    return "\n".join(lines)


def averaged_transfer_time(
    k: int,
    m: int,
    f: int,
    scheme: str,
    wld: str,
    seeds: tuple[int, ...] = (2023, 2024, 2025),
    **scenario_kwargs,
) -> float:
    """Mean transfer time over several seeded scenarios (failure patterns)."""
    times = []
    for s in seeds:
        sc = build_scenario(k, m, f, wld=wld, seed=s, **scenario_kwargs)
        times.append(transfer_time(sc.ctx, scheme))
    return float(np.mean(times))
