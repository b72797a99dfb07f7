"""Tests for the extension experiment harnesses and the report generator."""

import pytest

from repro.experiments import exp_dynamic, exp_reliability
from repro.experiments.report import _md_table, _section
from repro.system.request import RepairRequest


def test_exp_dynamic_rows():
    rows = exp_dynamic.run(cases=[(8, 4, 2)], seeds=(2023,))
    row = rows[0]
    assert row["hmbr_aware"] <= row["hmbr_stale"] + 1e-9
    assert 0.0 <= row["aware_p"] <= 1.0
    assert row["aware_gain_%"] >= -1e-9


def test_exp_dynamic_no_change_no_gain():
    """With no degradation, stale and aware splits coincide."""
    rows = exp_dynamic.run(
        cases=[(8, 4, 2)], seeds=(2023,), degrade_factor=1.0000001, change_time_s=1e9
    )
    row = rows[0]
    assert row["hmbr_aware"] == pytest.approx(row["hmbr_stale"], rel=1e-6)


def test_exp_reliability_rows():
    rows = exp_reliability.run(cases=[(8, 4)], node_mttf_hours=5_000.0)
    row = rows[0]
    assert row["hmbr_mttdl_yr"] > 0
    assert row["hmbr_vs_cr_x"] >= 1.0 - 1e-9
    assert row["hmbr_vs_ir_x"] >= 1.0 - 1e-9


def test_md_table_rendering():
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 0.25}]
    text = _md_table(rows)
    assert text.startswith("| a | b |")
    assert "| 3 | 0.25 |" in text
    assert _md_table([]) == "(no rows)"


def test_section_structure():
    text = _section("Title", "Claim.", [{"x": 1.0}], "Note.")
    assert text.startswith("## Title")
    assert "**Paper's claim.** Claim." in text
    assert "**Reproduction note.** Note." in text


def test_coordinator_rack_hmbr_scheme():
    from tests.test_system_coordinator import make_system, payload

    coord = make_system(n_data=16, n_spare=4, rack_size=4, seed=21, k=4, m=2)
    data = payload(30_000, seed=21)
    coord.write("f", data)
    victim = coord.layout.stripes[0].placement[0]  # a node that holds a block
    coord.crash_node(victim)
    report = coord.repair(RepairRequest(scheme="rack-hmbr"))
    assert report.blocks_recovered >= 1
    assert coord.read("f") == data
