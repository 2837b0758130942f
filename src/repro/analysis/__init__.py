"""Experiment runners and table formatting."""

from .experiments import (
    Table1Settings,
    build_bayes_lenet_accelerator,
    default_small_architectures,
    run_figure5_latency,
    run_figure5_resources,
    run_flops_reduction,
    run_table1,
    run_table2,
    run_table3,
)
from .tables import format_rows, format_table

__all__ = [
    "Table1Settings",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_figure5_resources",
    "run_figure5_latency",
    "run_flops_reduction",
    "build_bayes_lenet_accelerator",
    "default_small_architectures",
    "format_table",
    "format_rows",
]
