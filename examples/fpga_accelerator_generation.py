"""End-to-end transformation framework: non-Bayesian model in, FPGA project out.

This runs all four phases of the paper's transformation framework (Figure 2)
on a LeNet-5 backbone and a synthetic MNIST-like task:

* Phase 1: construct and train candidate multi-exit MCD BayesNNs, evaluate
  accuracy / ECE / FLOPs, filter by user constraints, pick by priority;
* Phase 2: choose the spatial/temporal mapping of the MC engines;
* Phase 3: co-explore bitwidth, channel scaling and reuse factor;
* Phase 4: emit the HLS project and the synthesis-style report.

The generated HLS sources are written to ``./generated_hls_project/``.

Run with:  python examples/fpga_accelerator_generation.py
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import format_table
from repro.core import CandidateConfig, UserConstraints
from repro.core.framework import FrameworkConfig, TransformationFramework
from repro.datasets import mnist_like
from repro.nn.architectures import lenet5_spec


def main() -> None:
    dataset = mnist_like(train_size=256, test_size=128, seed=0, image_size=20)

    def spec_factory(width_multiplier: float = 1.0):
        return lenet5_spec(
            input_shape=dataset.input_shape,
            num_classes=dataset.num_classes,
            width_multiplier=width_multiplier,
        )

    framework = TransformationFramework(
        spec_factory=spec_factory,
        train_split=dataset.train,
        test_split=dataset.test,
        config=FrameworkConfig(
            device="XCKU115",
            num_mc_samples=3,
            optimization_priority="calibration",
            constraints=UserConstraints(max_relative_flops=1.5),
            train_epochs=2,
            bitwidths=(8, 16),
            channel_multipliers=(1.0, 0.5),
            reuse_factors=(16, 64),
            seed=0,
        ),
    )

    # a compact Phase-1 grid (exits x dropout rates) keeps the example quick
    candidates = [
        CandidateConfig(
            num_exits=1, dropout_rate=0.25, mcd_layers_per_exit=1, num_mc_samples=3
        ),
        CandidateConfig(
            num_exits=2, dropout_rate=0.25, mcd_layers_per_exit=1, num_mc_samples=3
        ),
        CandidateConfig(
            num_exits=2, dropout_rate=0.5, mcd_layers_per_exit=1, num_mc_samples=3
        ),
    ]
    design = framework.run(candidates=candidates)

    # ------------------------------------------------------------------ #
    # Phase 1 outcome
    # ------------------------------------------------------------------ #
    rows = [
        [
            d.config.num_exits,
            d.config.dropout_rate,
            f"{d.accuracy:.3f}",
            f"{d.ece:.3f}",
            f"{d.relative_flops:.3f}",
        ]
        for d in design.phase1_all_designs
    ]
    print(
        format_table(
            ["exits", "dropout", "accuracy", "ECE", "relative FLOPs"],
            rows,
            title="Phase 1: evaluated multi-exit candidates",
        )
    )
    chosen = design.phase1_design
    print(
        f"\nselected: {chosen.config.num_exits} exits, "
        f"dropout {chosen.config.dropout_rate} "
        f"(accuracy {chosen.accuracy:.3f}, ECE {chosen.ece:.3f})"
    )

    # ------------------------------------------------------------------ #
    # Phases 2-3 outcome
    # ------------------------------------------------------------------ #
    print(f"\nPhase 2 mapping   : {design.mapping.describe()}")
    point = design.phase3_point
    print(
        f"Phase 3 selection : {point.point.bitwidth}-bit weights, "
        f"channel multiplier {point.point.channel_multiplier}, "
        f"reuse factor {point.point.reuse_factor} "
        f"(latency {point.latency_ms:.3f} ms, "
        f"energy {point.energy_per_image_j * 1000:.3f} mJ/image)"
    )

    # ------------------------------------------------------------------ #
    # Phase 4: HLS project + synthesis report
    # ------------------------------------------------------------------ #
    output_dir = Path(__file__).resolve().parent / "generated_hls_project"
    output_dir.mkdir(exist_ok=True)
    for filename, content in design.hls_files.items():
        (output_dir / filename).write_text(content)
    print(
        f"\nHLS project written to {output_dir} "
        f"({', '.join(sorted(design.hls_files))})"
    )

    print()
    print(design.report.to_text())

    assert design.accelerator.fits(), "the generated design must fit the XCKU115"


if __name__ == "__main__":
    main()
