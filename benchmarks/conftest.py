"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
docs/architecture.md, "Benchmarks as acceptance gates") and asserts the
corresponding *shape* claim — who wins, what grows, what stays flat — rather
than absolute numbers, since the hardware substrate is an analytical model
and the datasets are synthetic.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import Table1Settings, build_bayes_lenet_accelerator

from . import reporting


def pytest_sessionfinish(session, exitstatus):
    """Flush recorded benchmark metrics to BENCH_serving.json (see reporting).

    The flush merges suite-keyed sections into any existing file, so a CI
    job running several benchmark subsets accumulates one combined
    artifact.  On GitHub Actions the headline numbers are also appended to
    the job's step summary, making the bench trajectory reviewable without
    downloading artifacts.
    """
    path = reporting.flush()
    if path is None:
        return
    print(f"\nbenchmark metrics written to {path}")
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with Path(step_summary).open("a", encoding="utf-8") as handle:
            handle.write(reporting.markdown_summary() + "\n")


def benchmark_table1_settings() -> Table1Settings:
    """Scaled-down but structurally faithful Table I configuration."""
    return Table1Settings(
        train_size=256,
        test_size=160,
        num_classes=10,
        image_size=16,
        epochs=5,
        num_mc_samples=4,
        dropout_rates=(0.25,),
        confidence_thresholds=(0.5, 0.8, 0.95),
        seed=0,
    )


@pytest.fixture(scope="session")
def paper_accelerator():
    """The Table II / Table III accelerator: Bayes-LeNet5, XCKU115, 3 MC samples."""
    return build_bayes_lenet_accelerator(
        num_mc_samples=3,
        num_mcd_layers=1,
        bitwidth=8,
        reuse_factor=64,
        device="XCKU115",
        clock_mhz=181.0,
        use_spatial_mapping=True,
    )


def once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
