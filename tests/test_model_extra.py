"""Residual branch coverage for the analytical model and topology helpers."""

import pytest

from repro.repair.model import RepairModel, repair_model, t_cr, t_of_p
from repro.repair.topology import build_chain_paths, chain_survivor_order, default_center
from tests.conftest import make_repair_ctx


def test_t_cr_with_explicit_center(fig2):
    """Choosing the other new node as center changes nothing on Fig 2
    (identical bandwidth), but must route through it."""
    assert t_cr(fig2, center=6) == pytest.approx(t_cr(fig2, center=5))


def test_repair_model_dataclass_t():
    m = RepairModel(t_cr=4.0, t_ir=2.0, p0=2.0 / 6.0, t_hmbr=4.0 / 3.0, center=9)
    assert m.t(0.0) == 2.0
    assert m.t(1.0) == 4.0
    assert m.t(m.p0) == pytest.approx(m.t_hmbr)


def test_chain_order_invalid():
    ctx = make_repair_ctx()
    with pytest.raises(ValueError):
        chain_survivor_order(ctx, "alphabetical", ctx.decisions())


def test_chain_paths_end_at_assigned_new_nodes():
    ctx = make_repair_ctx(k=4, m=2, f=2)
    paths = build_chain_paths(ctx, "index", ctx.decisions())
    for fb, path in paths.items():
        assert path[-1] == ctx.new_node_of(fb)
        assert len(path) == ctx.k + 1


def test_default_center_policy_passthrough(fig2):
    assert default_center(fig2, "first") == fig2.new_nodes[0]


def test_repair_model_respects_chain_order(fig2):
    a = repair_model(fig2, chain_order="index")
    b = repair_model(fig2, chain_order="uplink-desc")
    assert a.t_cr == b.t_cr  # CR unaffected by chain order
    assert b.t_ir <= a.t_ir + 1e-12


def test_t_of_p_bounds():
    with pytest.raises(ValueError):
        t_of_p(-0.01, 1.0, 1.0)
    assert t_of_p(0.0, 3.0, 5.0) == 5.0
    assert t_of_p(1.0, 3.0, 5.0) == 3.0
