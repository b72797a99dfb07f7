"""Experiment harnesses: one per table/figure of the paper's evaluation.

Every module exposes ``run(...) -> list[dict]`` returning the rows the paper
reports, and ``main()`` that prints them as a table.  Benchmarks, examples
and EXPERIMENTS.md regeneration all call these, so the numbers in the docs
are the numbers the code produces.
"""

from repro.experiments.common import (
    Scenario,
    build_scenario,
    plan_for,
    transfer_time,
    format_table,
)

__all__ = [
    "Scenario",
    "build_scenario",
    "plan_for",
    "transfer_time",
    "format_table",
]
