"""Ablation benchmarks for the accelerator's design choices.

* MCD placement depth: how the number of MCD layers per exit affects the
  hardware footprint of the MC engine (deeper Bayesian tails cost more logic
  and more cycles per sample).
* Mapping mix: spatial vs mixed vs temporal MC-engine mapping under a
  resource budget (latency/resource trade-off, and the optimizer picks the
  most parallel mapping that fits).
* Co-exploration: bitwidth and channel-scaling sweep, checking that the
  Pareto front is non-trivial and that the selected design is feasible.
"""

from __future__ import annotations

from repro.analysis import format_rows
from repro.core import single_exit_bayesnet
from repro.hw import (
    AcceleratorConfig,
    AcceleratorModel,
    CoExplorer,
    get_device,
    mixed_mapping,
    optimize_mapping,
    pareto_front,
    spatial_mapping,
    temporal_mapping,
)
from repro.nn.architectures import lenet5_spec

from .conftest import once


def _bayes_lenet(num_mcd_layers: int = 1, width: float = 1.0):
    return single_exit_bayesnet(
        lenet5_spec(width_multiplier=width), num_mcd_layers=num_mcd_layers, seed=0
    )


def test_ablation_mcd_depth(benchmark):
    """Deeper Bayesian tails enlarge the MC engine and each sampling pass."""

    def sweep():
        rows = []
        for n_mcd in (1, 2, 3, 4):
            accel = AcceleratorModel(
                _bayes_lenet(n_mcd),
                AcceleratorConfig(
                    weight_bitwidth=8,
                    reuse_factor=64,
                    num_mc_samples=3,
                    mapping=temporal_mapping(3),
                ),
            )
            rows.append(
                {
                    "mcd_layers": n_mcd,
                    "engine_lut": accel.mc_engine_resources().lut,
                    "engine_cycles": accel.mc_engine_cycles(),
                    "total_latency_ms": accel.latency_ms(),
                }
            )
        return rows

    rows = once(benchmark, sweep)
    print()
    print(
        format_rows(
            rows,
            ["mcd_layers", "engine_lut", "engine_cycles", "total_latency_ms"],
            title="Ablation: MCD placement depth",
        )
    )
    lut = [r["engine_lut"] for r in rows]
    cycles = [r["engine_cycles"] for r in rows]
    assert lut == sorted(lut) and lut[-1] > lut[0]
    assert cycles == sorted(cycles) and cycles[-1] > cycles[0]


def test_ablation_mapping_mix(benchmark):
    """Spatial <-> temporal trade-off and budget-driven mapping selection."""

    def sweep():
        net = _bayes_lenet(2)
        rows = []
        for name, mapping in (
            ("temporal", temporal_mapping(6)),
            ("mixed-2", mixed_mapping(6, 2)),
            ("mixed-3", mixed_mapping(6, 3)),
            ("spatial", spatial_mapping(6)),
        ):
            accel = AcceleratorModel(
                net,
                AcceleratorConfig(
                    weight_bitwidth=8,
                    reuse_factor=64,
                    num_mc_samples=6,
                    mapping=mapping,
                ),
            )
            rows.append(
                {
                    "mapping": name,
                    "engines": mapping.num_engines,
                    "latency_ms": accel.latency_ms(),
                    "lut": accel.resources().lut,
                    "power_w": accel.power().total,
                }
            )
        return rows

    rows = once(benchmark, sweep)
    print()
    print(
        format_rows(
            rows,
            ["mapping", "engines", "latency_ms", "lut", "power_w"],
            title="Ablation: spatial vs temporal MC-engine mapping",
        )
    )

    latency = [r["latency_ms"] for r in rows]
    lut = [r["lut"] for r in rows]
    # more engines -> lower latency but more logic
    assert latency == sorted(latency, reverse=True)
    assert lut == sorted(lut)

    # the mapping optimizer picks the most parallel plan that fits a large device
    net = _bayes_lenet(2)
    probe = AcceleratorModel(
        net, AcceleratorConfig(
            weight_bitwidth=8,
            reuse_factor=64,
            num_mc_samples=6,
            mapping=temporal_mapping(6),
        ))
    plan = optimize_mapping(
        6,
        probe.mc_engine_resources(),
        probe.deterministic_resources(),
        get_device("XCKU115"),
    )
    assert plan.strategy == "spatial"


def test_ablation_co_exploration(benchmark):
    """Bitwidth / channel-scaling co-exploration produces a usable Pareto front."""

    def explore():
        explorer = CoExplorer(
            lambda width: _bayes_lenet(1, width), device="XCKU115", num_mc_samples=3
        )
        best, points = explorer.run(
            objective="energy",
            bitwidths=(4, 8, 16),
            channel_multipliers=(1.0, 0.5, 0.25),
            reuse_factors=(16, 64),
        )
        return best, points

    best, points = once(benchmark, explore)
    front = pareto_front(points)
    rows = [
        {
            "bitwidth": p.point.bitwidth,
            "channels": p.point.channel_multiplier,
            "reuse": p.point.reuse_factor,
            "latency_ms": p.latency_ms,
            "energy_j": p.energy_per_image_j,
            "fits": p.fits,
        }
        for p in front
    ]
    print()
    print(
        format_rows(
            rows,
            ["bitwidth", "channels", "reuse", "latency_ms", "energy_j", "fits"],
            title="Ablation: co-exploration Pareto front (latency vs energy)",
        )
    )

    assert best.fits
    assert best.energy_per_image_j == min(
        p.energy_per_image_j for p in points if p.fits
    )
    assert 1 <= len(front) <= len(points)
    # the full-precision, full-width design never beats the best on energy
    full = [
        p
        for p in points
        if p.point.bitwidth == 16
        and p.point.channel_multiplier == 1.0
        and p.point.reuse_factor == 16
    ][0]
    assert best.energy_per_image_j <= full.energy_per_image_j
