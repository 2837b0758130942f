"""Quickstart: build, train and query a multi-exit MCD Bayesian neural network.

This walks through the core ideas of the paper on a laptop-scale synthetic
task (Figure 1 and Equations 1-3):

1. take a standard backbone (LeNet-5) and attach one exit per semantic block;
2. insert Monte-Carlo-dropout layers near each exit;
3. train all exits jointly with exit-ensemble distillation;
4. obtain calibrated predictions and uncertainty from a handful of MC samples
   at a fraction of the cost of re-running the whole network per sample;
5. lower the trained model to an FPGA accelerator report.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.core import (
    MultiExitBayesNet,
    MultiExitConfig,
    network_flops,
    reduction_rate,
    single_exit_bayesnet,
)
from repro.datasets import mnist_like
from repro.hw import AcceleratorConfig, AcceleratorModel, spatial_mapping
from repro.hw.hls import SynthesisReport
from repro.nn import SGD, DistillationTrainer
from repro.nn.architectures import lenet5_spec
from repro.uncertainty import evaluate_predictions


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------ #
    # 1. data: a small synthetic MNIST-like task (no downloads needed)
    # ------------------------------------------------------------------ #
    dataset = mnist_like(train_size=384, test_size=192, seed=0, image_size=20)
    print(f"dataset: {dataset.name}, {dataset.train_size} train / {dataset.test_size} test")

    # ------------------------------------------------------------------ #
    # 2. model: LeNet-5 backbone, 2 exits, 1 MCD layer per exit
    # ------------------------------------------------------------------ #
    spec = lenet5_spec(input_shape=dataset.input_shape, num_classes=dataset.num_classes)
    model = MultiExitBayesNet(
        spec,
        MultiExitConfig(
            num_exits=2,
            mcd_layers_per_exit=1,
            dropout_rate=0.25,
            default_mc_samples=4,
            exit_conv_channels=8,
            seed=0,
        ),
    )
    print(
        f"model: {model.name} with {model.num_parameters} parameters, "
        f"{model.num_exits} exits"
    )

    # ------------------------------------------------------------------ #
    # 3. training with exit-ensemble distillation
    # ------------------------------------------------------------------ #
    trainer = DistillationTrainer(
        model,
        SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4),
        distill_weight=0.5,
        batch_size=32,
        seed=0,
    )
    history = trainer.fit(dataset.train.x, dataset.train.y, epochs=4)
    print(
        f"training: loss {history.loss[0]:.3f} -> {history.loss[-1]:.3f}, "
        f"train accuracy {history.accuracy[-1]:.3f}"
    )

    # ------------------------------------------------------------------ #
    # 4. calibrated Monte-Carlo predictions with a cached backbone
    # ------------------------------------------------------------------ #
    prediction = model.predict_mc(dataset.test.x, num_samples=4)
    report = evaluate_predictions(
        prediction.mean_probs, dataset.test.y, prediction.sample_probs
    )
    print("\nuncertainty report (4 MC samples):")
    for key, value in report.as_dict().items():
        print(f"  {key:<26}: {value:.4f}")

    breakdown = model.flop_breakdown()
    se_flops = network_flops(single_exit_bayesnet(spec))
    rows = []
    for samples in (1, 2, 4, 8):
        naive = samples * se_flops
        ours = breakdown.mc_sampling_flops(samples)
        rows.append(
            [
                samples,
                f"{naive:,.0f}",
                f"{ours:,.0f}",
                f"{naive / ours:.2f}x",
                f"{reduction_rate(breakdown.alpha, samples, model.num_exits):.2f}x",
            ]
        )
    print()
    print(
        format_table(
            [
                "MC samples",
                "single-exit FLOPs (Eq.1)",
                "multi-exit FLOPs (Eq.2)",
                "measured reduction",
                "Eq.3 reduction",
            ],
            rows,
            title="Cost of Monte-Carlo sampling (Figure 1 / Equations 1-3)",
        )
    )

    # uncertainty-aware behaviour: one stochastic pass vs the MC ensemble
    single_pass = model.exit_probabilities(dataset.test.x)[-1]
    print(f"\nmax confidence single pass : {single_pass.max(axis=1).mean():.3f}")
    print(
        f"max confidence MC ensemble : {prediction.mean_probs.max(axis=1).mean():.3f} "
        "(ensembling tempers overconfidence)"
    )

    # ------------------------------------------------------------------ #
    # 5. lower to an FPGA accelerator and print the synthesis-style report
    # ------------------------------------------------------------------ #
    accel = AcceleratorModel(
        model,
        AcceleratorConfig(
            device="XCKU115",
            weight_bitwidth=8,
            reuse_factor=32,
            num_mc_samples=4,
            mapping=spatial_mapping(4),
        ),
    )
    print()
    print(SynthesisReport.from_accelerator(accel).to_text())

    # sanity check for CI-style usage of the example
    assert report.accuracy > 1.0 / dataset.num_classes
    assert breakdown.mc_sampling_flops(8) < 8 * se_flops
    _ = rng  # unused, kept to show where extra experimentation would hook in


if __name__ == "__main__":
    main()
