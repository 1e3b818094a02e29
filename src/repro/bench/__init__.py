"""Benchmark harness: paper data, experiment runners, report formatting."""

from repro.bench import paper_data
from repro.bench.experiments import (
    CellResult,
    run_figure9,
    run_figure10,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)
from repro.bench.reporting import Comparison, comparison_table, format_table

__all__ = [
    "paper_data",
    "CellResult",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "run_figure9",
    "run_figure10",
    "Comparison",
    "comparison_table",
    "format_table",
]
