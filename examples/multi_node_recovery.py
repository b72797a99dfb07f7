#!/usr/bin/env python
"""Multi-node failure recovery with HMBR's LFS+LRS center scheduling.

Eight storage nodes die at once in an 88-node cluster holding (64, 8)
wide stripes.  Every affected stripe needs a multi-block repair; all of them
run in parallel and contend for the same links.  We compare the naive center
policy (every stripe grabs the fastest new node, which melts down) against
the paper's §IV-C least-frequently/least-recently-selected scheduler.

Run:  python examples/multi_node_recovery.py
"""

import numpy as np

from repro import Cluster, FluidSimulator, Node, make_wld, plan_multi_node
from repro.cluster.placement import place_stripes_random
from repro.ec.rs import get_code


def main() -> None:
    k, m = 64, 8
    n_data, n_dead, n_stripes = 88, 8, 24

    ds = make_wld(n_data + n_dead, "WLD-4x", seed=7)
    cluster = Cluster(
        [Node(i, float(ds.uplinks[i]), float(ds.downlinks[i])) for i in range(n_data + n_dead)]
    )
    code = get_code(k, m)
    layout = place_stripes_random(
        cluster, n_stripes, k, m, rng=7, candidates=list(range(n_data))
    )

    rng = np.random.default_rng(13)
    dead = sorted(int(x) for x in rng.choice(n_data, size=n_dead, replace=False))
    cluster.fail_nodes(dead)
    replacement_of = {d: n_data + i for i, d in enumerate(dead)}
    print(f"nodes {dead} failed; replacements {sorted(replacement_of.values())}")

    affected = layout.stripes_with_failures(dead)
    lost_blocks = sum(len(v) for v in affected.values())
    print(f"{len(affected)} of {n_stripes} stripes affected, {lost_blocks} blocks lost\n")

    sim = FluidSimulator(cluster)
    results = {}
    for enhanced in (False, True):
        merged, jobs = plan_multi_node(
            cluster, code, layout, dead, replacement_of,
            scheme="hmbr", enhanced=enhanced,
        )
        res = sim.run(merged.tasks)
        centers = [j.center for j in jobs]
        load = {c: centers.count(c) for c in sorted(set(centers))}
        label = "LFS+LRS scheduler" if enhanced else "naive (fastest new node)"
        results[enhanced] = res.makespan
        print(f"{label}:")
        print(f"  repair makespan : {res.makespan:8.2f} s")
        print(f"  center loads    : {load}")
        splits = list(merged.meta["split"].values())
        print(f"  split p per stripe: {min(splits):.3f} .. {max(splits):.3f} "
              f"(mean {np.mean(splits):.3f})\n")

    gain = 100 * (1 - results[True] / results[False])
    print(f"scheduling enhancement saved {gain:.1f}% "
          f"(paper reports 10.9% on average, up to 15.9%)")


if __name__ == "__main__":
    main()
