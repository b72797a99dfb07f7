"""Conservation oracle: a plan's two views move the same bytes.

Every plan is lowered twice: flow *tasks* for the fluid simulator and GF
*ops* for the agents.  This suite checks the two against each other, and
both against the schemes' closed forms, without trusting either:

* **Per link.** Walking the ops — a ``SliceOp`` keeps its fraction of a
  block, a ``CombineOp`` output is as long as its (equal-length) sources, a
  ``ConcatOp`` sums its parts, a ``TransferOp`` carries its buffer — gives
  the block-volume every directed link carries.  It must equal the timing
  view's MB on that link over ``block_size_mb``, and every repaired output
  must be exactly one block.
* **Per stripe.** The total matches the closed form: CR moves k + f − 1
  block-volumes (k + f when its center is not a new node; CR-SIM's
  ``stateParallRepairCost``), IR and MLF f·k, HMBR p0·CR + (1 − p0)·IR, a
  single-block repair k.
* **On the wire.** Dispatched through the agents, the bus meters on every
  link exactly the bytes the op walk predicts at word-aligned slice
  boundaries, and the repaired blocks are the originals.  A whole round
  moves the same bus bytes per payload byte on GF(2^8) and GF(2^16).
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.experiments.common import build_scenario
from repro.gf.field import GF
from repro.repair.plan import CombineOp, ConcatOp, SliceOp, TransferOp
from repro.repair.planner import SCHEMES
from repro.system.agent import run_plan_ops
from repro.system.executor import Workspace
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout
from tests.test_system_coordinator import make_system, payload

SHAPES = [(6, 3), (12, 4), (32, 8)]
WLDS = ("WLD-2x", "WLD-8x")
SEEDS = seed_fanout(DEFAULT_MASTER_SEED, 3)
#: stored block length of the wire check: 1 000 words, so fractions round
WORD = 8
BLOCK_BYTES = 1000 * WORD
TOL = 1e-9


def _scenario(k, m, f, wld, seed):
    """A seeded single-stripe failure; every other shape is split into
    about six racks (WLD-8x ones with capped cross-rack links)."""
    n = k + m + f
    racked = seed % 2 == 0
    return build_scenario(
        k, m, f, wld=wld, seed=seed,
        rack_size=-(-n // 6) if racked else None,
        cross_factor=4.0 if racked and wld == "WLD-8x" else None,
    ).ctx


def op_walk(ops, block, cut):
    """``(link -> summed measure, (node, buffer) -> measure)`` of an op list.

    ``block`` is a stored block's measure and ``cut(measure, start, stop)``
    a slice's: block-volume (1.0 and the fraction width) or bytes.
    """
    size = {}
    links = defaultdict(float)
    for op in ops:
        kind = type(op)
        if kind is SliceOp:
            size[op.node, op.out] = cut(size.get((op.node, op.src), block), op.start, op.stop)
        elif kind is CombineOp:
            widths = {size[op.node, s] for s in op.srcs}
            assert len(widths) == 1, f"{op!r} combines unequal sources {widths}"
            size[op.node, op.out] = widths.pop()
        elif kind is ConcatOp:
            size[op.node, op.out] = sum(size[op.node, p] for p in op.parts)
        else:
            assert kind is TransferOp
            moved = size[op.src_node, op.name]
            size[op.dst_node, op.rename or op.name] = moved
            links[op.src_node, op.dst_node] += moved
    return links, size


def volume_cut(measure, start, stop):
    return measure * (stop - start)


def byte_cut(nbytes, start, stop):
    """Bytes of ``word_slice`` over a fraction range of an ``nbytes`` buffer."""
    words = nbytes // WORD
    return (round(stop * words) - round(start * words)) * WORD


def timing_volumes(plan, block_size_mb):
    links = defaultdict(float)
    for t in plan.tasks:
        for hop in getattr(t, "hops", ()):
            links[hop] += t.size_mb / block_size_mb
    return links


def closed_form(plan, k, f, new_nodes):
    """The stripe's total block-volume on the wire, or ``None`` (rack-aware
    shapes depend on the racks and collectors)."""
    cr = k + f - 1 if plan.meta.get("center") in new_nodes else k + f
    forms = {
        "CR": cr, "IR": f * k, "MLF": f * k,
        "StarSingle": k, "ChainSingle": k, "PPRSingle": k,
    }
    if plan.scheme == "HMBR":
        p0 = plan.meta["p0"]
        return p0 * cr + (1 - p0) * f * k
    return forms.get(plan.scheme)


def assert_links_equal(got, want, what):
    for link in set(got) | set(want):
        assert abs(got.get(link, 0.0) - want.get(link, 0.0)) <= TOL, (what, link)


def wire_check(ctx, plan):
    """Run ``plan`` on a workspace of random blocks; the bus per link must
    meter the op walk's bytes, and every output must be its original block."""
    rng = np.random.default_rng(ctx.stripe.stripe_id + len(plan.tasks))
    data = rng.integers(0, 256, size=(ctx.k, BLOCK_BYTES), dtype=np.uint8)
    blocks = np.asarray(ctx.code.encode_stripe(data))
    ws = Workspace(word_bytes=WORD)
    ws.load_stripe(ctx.stripe, blocks)
    metered = defaultdict(int)
    ws.bus.obs_hook = lambda src, dst, nbytes: metered.__setitem__(
        (src, dst), metered[src, dst] + nbytes
    )
    run_plan_ops(plan.ops, ws.agents, ws.bus)
    predicted, _ = op_walk(plan.ops, BLOCK_BYTES, byte_cut)
    assert dict(metered) == {link: b for link, b in predicted.items() if b}
    for fb, (node, name) in plan.outputs.items():
        assert np.array_equal(ws.get(node, name), blocks[fb]), fb


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"RS{s[0]}-{s[1]}")
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_views_conserve_volume(scheme, shape, f):
    k, m = shape
    for wld in WLDS:
        for seed in SEEDS:
            ctx = _scenario(k, m, f, wld, seed)
            plan = SCHEMES[scheme](ctx, ctx.pick_center())
            data, size = op_walk(plan.ops, 1.0, volume_cut)
            timing = timing_volumes(plan, ctx.block_size_mb)
            assert_links_equal(data, timing, (scheme, wld, seed))
            for fb, (node, name) in plan.outputs.items():
                assert abs(size[node, name] - 1.0) <= TOL, fb
            want = closed_form(plan, k, f, ctx.new_nodes)
            if want is not None:
                assert abs(sum(timing.values()) - want) <= TOL * want, plan.scheme
            if seed == SEEDS[0]:
                wire_check(ctx, plan)


def test_closed_forms_cover_every_non_rack_scheme():
    """The closed-form leg is not vacuous: every scheme but the rack-aware
    one reaches it on an RS(12,4) double failure."""
    ctx = _scenario(12, 4, 2, "WLD-8x", SEEDS[1])
    for scheme in sorted(set(SCHEMES) - {"rack-hmbr"}):
        plan = SCHEMES[scheme](ctx, ctx.pick_center())
        assert closed_form(plan, 12, 2, ctx.new_nodes) is not None, scheme


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_dispatched_round_meters_its_byte_views(scheme):
    """A whole coordinator round, on both fields: the bus bytes on every link
    are the sum of the dispatched plans' op walks at the system's block
    length.  With 2 048-byte blocks on both (1 024 GF(2^16) elements), the
    same payload moves the same bus bytes per payload byte on every link."""
    metered_by_field = {}
    for w in (8, 16):
        block_nbytes = 2048
        coord = make_system(
            seed=29, rack_size=6, block_bytes=block_nbytes * 8 // w, field=GF(w)
        )
        data = payload(5 * coord.code.k * block_nbytes, seed=29)
        coord.write("f", data)
        for node in coord.layout.stripes[0].placement[:2]:
            coord.crash_node(node)
        affected = coord.layout.stripes_with_failures(coord.cluster.dead_ids())
        rnd = coord.plan_round(scheme, affected)
        metered = defaultdict(int)
        coord.bus.obs_hook = lambda src, dst, nbytes: metered.__setitem__(
            (src, dst), metered[src, dst] + nbytes
        )
        try:
            coord.dispatch_round(rnd, verify=True)
        finally:
            coord.bus.obs_hook = None
        predicted = defaultdict(int)
        for _, plan in rnd.plans:
            for link, nbytes in op_walk(plan.ops, block_nbytes, byte_cut)[0].items():
                predicted[link] += nbytes
        assert dict(metered) == {link: b for link, b in predicted.items() if b}
        assert sum(metered.values()) > 0
        assert coord.read("f") == data
        metered_by_field[w] = dict(metered)
    assert metered_by_field[8] == metered_by_field[16]
