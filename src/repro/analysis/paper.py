"""The paper's table and figure drivers: one function per table / figure.

Every runner returns plain data structures (lists of dict rows) so that the
benchmarks under ``benchmarks/`` and the examples consume the same code
path.  Runner arguments default to laptop-scale settings (small synthetic
datasets, scaled-down channel counts, few epochs); the trends they
produce — not absolute numbers — are what reproduce the paper's results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.bayesnn import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet
from ..core.flops import network_flops, reduction_rate
from ..datasets.synthetic import SyntheticImageDataset, cifar100_like
from ..hw.accelerator import AcceleratorConfig, AcceleratorModel
from ..hw.baselines import PUBLISHED_BASELINES
from ..hw.hls.report import SynthesisReport
from ..hw.mapping import spatial_mapping, temporal_mapping
from ..nn.architectures import lenet5_spec, resnet_spec, vgg_spec
from ..nn.architectures.common import BackboneSpec
from ..nn.layers.activations import softmax
from ..nn.losses import CrossEntropyLoss
from ..nn.optimizers import SGD
from ..nn.training import DistillationTrainer, Trainer
from ..uncertainty.calibration import expected_calibration_error
from ..uncertainty.metrics import accuracy as accuracy_metric

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
]


# --------------------------------------------------------------------------- #
# shared small-model factories
# --------------------------------------------------------------------------- #
def default_small_architectures() -> dict[str, Callable[..., BackboneSpec]]:
    """Scaled-down ResNet-18 / VGG-19 factories used by the Table I study."""

    def resnet18_small(
        width_multiplier: float = 1.0, num_classes: int = 10
    ) -> BackboneSpec:
        return resnet_spec(
            "resnet18",
            input_shape=(3, 16, 16),
            num_classes=num_classes,
            width_multiplier=0.25 * width_multiplier,
            max_stages=3,
        )

    def vgg19_small(
        width_multiplier: float = 1.0, num_classes: int = 10
    ) -> BackboneSpec:
        return vgg_spec(
            "vgg19",
            input_shape=(3, 16, 16),
            num_classes=num_classes,
            width_multiplier=0.25 * width_multiplier,
            max_stages=3,
        )

    return {"resnet18": resnet18_small, "vgg19": vgg19_small}


# --------------------------------------------------------------------------- #
# Table I — SE vs MCD vs ME vs MCD+ME
# --------------------------------------------------------------------------- #
@dataclass
class Table1Settings:
    """Scale knobs of the Table I experiment."""

    train_size: int = 256
    test_size: int = 160
    num_classes: int = 10
    image_size: int = 16
    epochs: int = 3
    batch_size: int = 32
    lr: float = 0.05
    num_mc_samples: int = 4
    dropout_rates: Sequence[float] = (0.25,)
    confidence_thresholds: Sequence[float] = (0.5, 0.8, 0.95)
    exit_conv_channels: int = 16
    noise_level: float = 1.5
    seed: int = 0
    architectures: dict[str, Callable[..., BackboneSpec]] = field(
        default_factory=default_small_architectures
    )


def _metric_entry(
    config: str, probs: np.ndarray, labels: np.ndarray, relative_flops: float
) -> dict:
    return {
        "config": config,
        "accuracy": accuracy_metric(probs, labels),
        "ece": expected_calibration_error(probs, labels),
        "relative_flops": relative_flops,
    }


def _best_entries(entries: list[dict]) -> dict:
    """Pick the accuracy-optimal and ECE-optimal configuration."""
    acc_opt = max(entries, key=lambda e: e["accuracy"])
    ece_opt = min(entries, key=lambda e: e["ece"])
    return {"acc_opt": acc_opt, "ece_opt": ece_opt, "all": entries}


def _train_multi_exit(
    model: MultiExitBayesNet,
    dataset: SyntheticImageDataset,
    settings: Table1Settings,
    distill_weight: float = 0.5,
) -> None:
    optimizer = SGD(model.parameters(), lr=settings.lr, momentum=0.9, weight_decay=5e-4)
    trainer = DistillationTrainer(
        model,
        optimizer,
        distill_weight=distill_weight,
        batch_size=settings.batch_size,
        seed=settings.seed,
    )
    trainer.fit(dataset.train.x, dataset.train.y, epochs=settings.epochs)


def run_table1(settings: Table1Settings | None = None) -> dict:
    """Reproduce Table I: four model families on a CIFAR-100-like task.

    Returns ``{architecture: {variant: {"acc_opt": row, "ece_opt": row}}}``
    plus the dataset description under ``"_meta"``.
    """
    settings = settings or Table1Settings()
    dataset = cifar100_like(
        train_size=settings.train_size,
        test_size=settings.test_size,
        num_classes=settings.num_classes,
        image_size=settings.image_size,
        noise_level=settings.noise_level,
        seed=settings.seed,
    )
    labels = dataset.test.y
    results: dict = {
        "_meta": {
            "dataset": dataset.describe(),
            "settings": {
                "epochs": settings.epochs,
                "num_mc_samples": settings.num_mc_samples,
                "dropout_rates": list(settings.dropout_rates),
                "confidence_thresholds": list(settings.confidence_thresholds),
            },
        }
    }

    for arch_name, factory in settings.architectures.items():
        # one spec builds all four families (each build makes fresh layers);
        # num_classes is passed when the factory takes it
        try:
            spec = factory(width_multiplier=1.0, num_classes=settings.num_classes)
        except TypeError:
            spec = factory(width_multiplier=1.0)

        arch_results: dict = {}

        # ---------------- SE: single exit, no MCD -------------------------- #
        se_net = single_exit_bayesnet(spec, seed=settings.seed)
        se_flops = float(network_flops(se_net))
        trainer = Trainer(
            se_net,
            SGD(se_net.parameters(), lr=settings.lr, momentum=0.9, weight_decay=5e-4),
            CrossEntropyLoss(),
            batch_size=settings.batch_size,
            seed=settings.seed,
        )
        trainer.fit(dataset.train.x, dataset.train.y, epochs=settings.epochs)
        se_probs = softmax(se_net.predict(dataset.test.x), axis=-1)
        arch_results["SE"] = _best_entries(
            [_metric_entry("single-exit", se_probs, labels, 1.0)]
        )

        # ---------------- MCD: single exit with MC dropout ----------------- #
        mcd_entries = []
        for rate in settings.dropout_rates:
            model = MultiExitBayesNet(
                spec,
                MultiExitConfig(
                    num_exits=1,
                    mcd_layers_per_exit=1,
                    dropout_rate=rate,
                    default_mc_samples=settings.num_mc_samples,
                    seed=settings.seed,
                ),
            )
            _train_multi_exit(model, dataset, settings, distill_weight=0.0)
            probs = model.predict_mc(dataset.test.x, settings.num_mc_samples).mean_probs
            per_pass = model.flop_breakdown().single_pass_flops() / se_flops
            mcd_entries.append(_metric_entry(f"mcd p={rate}", probs, labels, per_pass))
        arch_results["MCD"] = _best_entries(mcd_entries)

        # ---------------- ME: multi-exit, no MCD --------------------------- #
        me_entries = []
        me_model = MultiExitBayesNet(
            spec,
            MultiExitConfig(
                num_exits=spec.num_blocks,
                mcd_layers_per_exit=0,
                dropout_rate=0.0,
                default_mc_samples=settings.num_mc_samples,
                exit_conv_channels=settings.exit_conv_channels,
                seed=settings.seed,
            ),
        )
        _train_multi_exit(me_model, dataset, settings)
        me_entries.extend(
            _evaluate_exit_configurations(
                me_model, dataset, se_flops, settings, prefix="me"
            )
        )
        arch_results["ME"] = _best_entries(me_entries)

        # ---------------- MCD+ME: the paper's approach --------------------- #
        ours_entries = []
        for rate in settings.dropout_rates:
            ours = MultiExitBayesNet(
                spec,
                MultiExitConfig(
                    num_exits=spec.num_blocks,
                    mcd_layers_per_exit=1,
                    dropout_rate=rate,
                    default_mc_samples=settings.num_mc_samples,
                    exit_conv_channels=settings.exit_conv_channels,
                    seed=settings.seed,
                ),
            )
            _train_multi_exit(ours, dataset, settings)
            ours_entries.extend(
                _evaluate_exit_configurations(
                    ours,
                    dataset,
                    se_flops,
                    settings,
                    prefix=f"mcd+me p={rate}",
                    mc_samples=settings.num_mc_samples,
                )
            )
        arch_results["MCD+ME"] = _best_entries(ours_entries)

        results[arch_name] = arch_results
    return results


def _evaluate_exit_configurations(
    model: MultiExitBayesNet,
    dataset: SyntheticImageDataset,
    se_flops: float,
    settings: Table1Settings,
    prefix: str,
    mc_samples: int | None = None,
) -> list[dict]:
    """Evaluate the per-exit, full-ensemble and confidence-exiting configurations.

    Mirrors the paper's grid (Section V-B): predictions are taken "at each
    exit or the largest possible ensemble at each exit", plus confidence-based
    early exiting over the chosen thresholds.
    """
    labels = dataset.test.y
    entries = []
    stochastic = model.config.is_bayesian
    passes = 1
    if mc_samples is not None and stochastic:
        passes = max(1, -(-mc_samples // model.num_exits))

    # MC-averaged per-exit predictions through the sample-folded engine: the
    # backbone runs once and each head's stochastic suffix runs a single
    # folded (passes·N) batch instead of `passes` sequential passes.
    engine = model.engine
    if stochastic:
        per_exit = engine.exit_mc_probabilities(dataset.test.x, passes)
    else:
        per_exit = engine.exit_probabilities(dataset.test.x, stochastic=False)

    breakdown = model.flop_breakdown()
    # individual exits: backbone up to that exit plus that exit's head
    cumulative = np.asarray(model.cumulative_exit_flops()) / se_flops
    for i, probs in enumerate(per_exit):
        entries.append(
            _metric_entry(f"{prefix} exit{i}", probs, labels, float(cumulative[i]))
        )

    # the largest possible ensemble (all exits, equally weighted)
    ensemble = np.mean(per_exit, axis=0)
    full_flops = breakdown.single_pass_flops() / se_flops
    entries.append(_metric_entry(f"{prefix} ensemble", ensemble, labels, full_flops))

    # confidence-based early exiting over the chosen thresholds
    for threshold in settings.confidence_thresholds:
        result = model.early_exit_predict(dataset.test.x, threshold)
        entries.append(
            _metric_entry(
                f"{prefix} conf={threshold}",
                result.probs,
                labels,
                result.expected_flops(cumulative),
            )
        )
    return entries


# --------------------------------------------------------------------------- #
# Table II / Table III — hardware comparison and power breakdown
# --------------------------------------------------------------------------- #
def build_bayes_lenet_accelerator(
    num_mc_samples: int = 3,
    num_mcd_layers: int = 1,
    bitwidth: int = 8,
    reuse_factor: int = 64,
    device: str = "XCKU115",
    clock_mhz: float = 181.0,
    dropout_rate: float = 0.25,
    width_multiplier: float = 1.0,
    use_spatial_mapping: bool = True,
    seed: int = 0,
) -> AcceleratorModel:
    """The paper's final design: Bayes-LeNet5 on the XCKU115 with 3 MC samples."""
    spec = lenet5_spec(width_multiplier=width_multiplier)
    net = single_exit_bayesnet(
        spec, num_mcd_layers=num_mcd_layers, dropout_rate=dropout_rate, seed=seed
    )
    mapping = (
        spatial_mapping(num_mc_samples)
        if use_spatial_mapping
        else temporal_mapping(num_mc_samples)
    )
    config = AcceleratorConfig(
        device=device,
        clock_mhz=clock_mhz,
        weight_bitwidth=bitwidth,
        reuse_factor=reuse_factor,
        num_mc_samples=num_mc_samples,
        mapping=mapping,
    )
    return AcceleratorModel(net, config, name="bayes_lenet5_xcku115")


def run_table2(accelerator: AcceleratorModel | None = None) -> list[dict]:
    """Reproduce Table II: our FPGA design vs CPU, GPU and prior FPGA work.

    Returns one row per platform with frequency, technology, power, latency
    and energy efficiency (J/image).  Baseline rows are the published numbers
    the paper quotes; the "Our Work" row comes from the analytical model.
    """
    accelerator = accelerator or build_bayes_lenet_accelerator()
    rows = [result.as_row() for result in PUBLISHED_BASELINES.values()]

    power = accelerator.power()
    latency = accelerator.latency_ms()
    rows.append(
        {
            "name": "Our Work",
            "platform": accelerator.device.name,
            "frequency_mhz": accelerator.config.clock_mhz,
            "technology_nm": accelerator.device.technology_nm,
            "power_w": power.total,
            "latency_ms": latency,
            "energy_per_image_j": power.energy_per_image_j(latency),
        }
    )
    return rows


def run_table3(accelerator: AcceleratorModel | None = None) -> dict:
    """Reproduce Table III: power breakdown of our FPGA accelerator."""
    accelerator = accelerator or build_bayes_lenet_accelerator()
    breakdown = accelerator.power()
    return {
        "watts": breakdown.as_dict(),
        "percentages": breakdown.percentages(),
        "report": SynthesisReport.from_accelerator(accelerator).as_dict(),
    }


# --------------------------------------------------------------------------- #
# Figure 5 — cost of being Bayesian
# --------------------------------------------------------------------------- #
def _figure5_model_specs(
    width_multiplier: float,
) -> dict[str, Callable[[], BackboneSpec]]:
    return {
        "bayes_lenet5": lambda: lenet5_spec(width_multiplier=1.0),
        "bayes_resnet18": lambda: resnet_spec(
            "resnet18",
            input_shape=(3, 32, 32),
            width_multiplier=0.25 * width_multiplier,
        ),
        "bayes_vgg11": lambda: vgg_spec(
            "vgg11", input_shape=(3, 32, 32), width_multiplier=0.25 * width_multiplier
        ),
    }


def run_figure5_resources(
    mcd_layer_counts: Sequence[int] = (1, 3, 5, 7),
    bitwidth: int = 8,
    reuse_factor: int = 64,
    device: str = "XCKU115",
    width_multiplier: float = 1.0,
    models: Sequence[str] = ("bayes_lenet5", "bayes_resnet18", "bayes_vgg11"),
    seed: int = 0,
) -> list[dict]:
    """Reproduce Figure 5 (left): resources vs number of MCD layers.

    Designs use temporal mapping (a single shared MC engine), as in the
    paper's resource study.  Returns one row per (model, #MCD layers).
    """
    spec_factories = _figure5_model_specs(width_multiplier)
    rows = []
    for model_name in models:
        if model_name not in spec_factories:
            raise KeyError(f"unknown Figure 5 model {model_name!r}")
        for n_mcd in mcd_layer_counts:
            net = single_exit_bayesnet(
                spec_factories[model_name](), num_mcd_layers=n_mcd, seed=seed
            )
            accel = AcceleratorModel(
                net,
                AcceleratorConfig(
                    device=device,
                    weight_bitwidth=bitwidth,
                    reuse_factor=reuse_factor,
                    num_mc_samples=3,
                    mapping=temporal_mapping(3),
                ),
                name=f"{model_name}_mcd{n_mcd}",
            )
            usage = accel.resources()
            rows.append(
                {
                    "model": model_name,
                    "num_mcd_layers": accel.num_mcd_layers,
                    "bram_18k": usage.bram_18k,
                    "dsp": usage.dsp,
                    "ff": usage.ff,
                    "lut": usage.lut,
                }
            )
    return rows


def run_figure5_latency(
    mc_sample_counts: Sequence[int] = (1, 2, 3, 4, 5),
    bitwidth: int = 8,
    reuse_factor: int = 64,
    device: str = "XCKU115",
    width_multiplier: float = 1.0,
    models: Sequence[str] = ("bayes_lenet5", "bayes_resnet18", "bayes_vgg11"),
    seed: int = 0,
) -> list[dict]:
    """Reproduce Figure 5 (right): latency vs MC samples, with/without spatial mapping.

    Each design has one MCD layer.  The "unoptimized" series shares a single
    MC engine (temporal mapping); the "spatial" series replicates the engine
    per sample.
    """
    spec_factories = _figure5_model_specs(width_multiplier)
    rows = []
    for model_name in models:
        if model_name not in spec_factories:
            raise KeyError(f"unknown Figure 5 model {model_name!r}")
        net = single_exit_bayesnet(
            spec_factories[model_name](), num_mcd_layers=1, seed=seed
        )
        for num_samples in mc_sample_counts:
            for strategy, mapping in (
                ("unoptimized", temporal_mapping(num_samples)),
                ("spatial", spatial_mapping(num_samples)),
            ):
                accel = AcceleratorModel(
                    net,
                    AcceleratorConfig(
                        device=device,
                        weight_bitwidth=bitwidth,
                        reuse_factor=reuse_factor,
                        num_mc_samples=num_samples,
                        mapping=mapping,
                    ),
                    name=f"{model_name}_{strategy}_{num_samples}",
                )
                rows.append(
                    {
                        "model": model_name,
                        "mapping": strategy,
                        "num_mc_samples": num_samples,
                        "latency_ms": accel.latency_ms(),
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Equations 1–3 — analytic FLOP reduction sweep
# --------------------------------------------------------------------------- #
def run_flops_reduction(
    alphas: Sequence[float] = (0.01, 0.05, 0.1, 0.25),
    sample_counts: Sequence[int] = (1, 2, 4, 8, 16),
    exit_counts: Sequence[int] = (1, 2, 4),
) -> list[dict]:
    """Sweep the Eq. 3 reduction rate over alpha, samples and exits."""
    rows = []
    for alpha in alphas:
        for num_samples in sample_counts:
            for num_exits in exit_counts:
                if num_exits > num_samples:
                    continue
                rows.append(
                    {
                        "alpha": alpha,
                        "num_samples": num_samples,
                        "num_exits": num_exits,
                        "reduction_rate": reduction_rate(alpha, num_samples, num_exits),
                    }
                )
    return rows
