"""Benchmark: Equations 1–3 — FLOP reduction of multi-exit MC sampling.

Sweeps the analytic reduction rate over the exit-to-backbone FLOP ratio
(alpha), the number of MC samples, and the number of exits, and cross-checks
the analytic model against the measured FLOP breakdown of a real multi-exit
BayesNN built from the LeNet-5 backbone.
"""

from __future__ import annotations

from repro.analysis import format_rows, run_flops_reduction
from repro.core import (
    MultiExitBayesNet,
    MultiExitConfig,
    multi_exit_sampling_flops,
)
from repro.nn.architectures import lenet5_spec

from .conftest import once


def test_eq3_reduction_rate_sweep(benchmark):
    rows = once(
        benchmark,
        lambda: run_flops_reduction(
            alphas=(0.01, 0.05, 0.1, 0.25),
            sample_counts=(1, 2, 4, 8, 16),
            exit_counts=(1, 2, 4),
        ),
    )

    print()
    print(
        format_rows(
            rows,
            ["alpha", "num_samples", "num_exits", "reduction_rate"],
            title="Eq. 3 (reproduced): FLOP reduction of multi-exit MC sampling",
        )
    )

    # the reduction is always at least 1x and grows with the number of samples
    assert all(r["reduction_rate"] >= 1.0 for r in rows)
    for alpha in (0.01, 0.25):
        for exits in (2, 4):
            rates = [
                r["reduction_rate"]
                for r in rows
                if r["alpha"] == alpha and r["num_exits"] == exits
            ]
            assert rates == sorted(rates)

    # smaller exits (smaller alpha) benefit more from caching the backbone
    r_small = [
        r
        for r in rows
        if r["alpha"] == 0.01 and r["num_samples"] == 16 and r["num_exits"] == 4
    ][0]
    r_large = [
        r
        for r in rows
        if r["alpha"] == 0.25 and r["num_samples"] == 16 and r["num_exits"] == 4
    ][0]
    assert r_small["reduction_rate"] > r_large["reduction_rate"]


def test_eq2_matches_measured_model(benchmark):
    """The analytic Eq. 2 cost matches the FLOP breakdown of a concrete model."""

    def measure():
        model = MultiExitBayesNet(
            lenet5_spec(),
            MultiExitConfig(
                num_exits=2, mcd_layers_per_exit=1, dropout_rate=0.25, seed=0
            ),
        )
        fb = model.flop_breakdown()
        return model, fb

    model, fb = once(benchmark, measure)
    for samples in (2, 4, 8):
        analytic = multi_exit_sampling_flops(
            fb.backbone_flops, fb.total_exit_flops, samples, fb.num_exits
        )
        assert model.sampling_flops(samples) == analytic
        # Equation 1: S full passes of a single-exit BayesNN
        naive = samples * (fb.backbone_flops + fb.total_exit_flops)
        assert analytic < naive
