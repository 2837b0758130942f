"""Cross-module integration tests.

These tests exercise complete paths through the library: training a
multi-exit MCD BayesNN on a synthetic task and checking calibration
behaviour, comparing its sampling cost against a deep ensemble's, and
carrying the trained model all the way to an HLS accelerator project.
"""

import numpy as np
import pytest

from repro.core import (
    MultiExitBayesNet,
    MultiExitConfig,
    network_flops,
    single_exit_bayesnet,
)
from repro.datasets import SyntheticImageDataset
from repro.hw import (
    AcceleratorConfig,
    AcceleratorModel,
    optimize_mapping,
    temporal_mapping,
)
from repro.hw.hls import HLSCodeGenerator, SynthesisReport
from repro.nn import SGD, DistillationTrainer
from repro.quantization import QuantizationConfig, quantize_network
from repro.uncertainty import accuracy, evaluate_predictions

from ..conftest import small_lenet_spec


@pytest.fixture(scope="module")
def dataset():
    return SyntheticImageDataset(
        "integration",
        input_shape=(1, 12, 12),
        num_classes=5,
        train_size=160,
        test_size=80,
        noise_level=0.45,
        seed=3,
    )


@pytest.fixture(scope="module")
def trained_model(dataset):
    model = MultiExitBayesNet(
        small_lenet_spec(),
        MultiExitConfig(
            num_exits=2,
            mcd_layers_per_exit=1,
            dropout_rate=0.25,
            default_mc_samples=4,
            seed=0,
        ),
    )
    trainer = DistillationTrainer(
        model,
        SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4),
        distill_weight=0.5,
        batch_size=32,
        seed=0,
    )
    trainer.fit(dataset.train.x, dataset.train.y, epochs=4)
    return model


class TestTrainedModelQuality:
    def test_beats_chance_on_test_set(self, trained_model, dataset):
        probs = trained_model.predict_mc(dataset.test.x, 4).mean_probs
        assert accuracy(probs, dataset.test.y) > 1.0 / 5 + 0.1

    def test_mc_ensembling_improves_nll(self, trained_model, dataset):
        """Averaging MC samples never increases NLL (Jensen's inequality)."""
        from repro.uncertainty import negative_log_likelihood

        pred = trained_model.predict_mc(dataset.test.x, 8)
        sample_nlls = [
            negative_log_likelihood(p, dataset.test.y) for p in pred.sample_probs
        ]
        ensemble_nll = negative_log_likelihood(pred.mean_probs, dataset.test.y)
        assert ensemble_nll <= np.mean(sample_nlls) + 1e-9

    def test_accuracy_drops_under_distribution_shift(self, trained_model, dataset):
        """The shifted split is a genuine distribution shift the model suffers on."""
        shifted = dataset.shifted_test_set(noise_multiplier=4.0, intensity_shift=0.0)
        clean_acc = accuracy(
            trained_model.predict_mc(dataset.test.x, 4).mean_probs, dataset.test.y
        )
        shifted_acc = accuracy(
            trained_model.predict_mc(shifted.x, 4).mean_probs, shifted.y
        )
        assert shifted_acc < clean_acc

    def test_full_metric_report(self, trained_model, dataset):
        pred = trained_model.predict_mc(dataset.test.x, 6)
        report = evaluate_predictions(
            pred.mean_probs, dataset.test.y, pred.sample_probs
        )
        assert report.accuracy > 0.2
        assert report.mean_mutual_information >= 0.0

    def test_early_exit_saves_flops(self, trained_model, dataset):
        costs = trained_model.cumulative_exit_flops()
        result = trained_model.early_exit_predict(dataset.test.x, threshold=0.5)
        expected = result.expected_flops(costs)
        assert expected <= costs[-1] + 1e-9

    def test_multi_exit_sampling_cheaper_than_naive(self, trained_model):
        fb = trained_model.flop_breakdown()
        naive = 8 * fb.single_pass_flops()
        assert trained_model.sampling_flops(8) < 0.75 * naive


class TestDeepEnsembleComparison:
    def test_multi_exit_far_cheaper_than_ensemble(self, trained_model, dataset):
        """The headline motivation: similar calibration machinery, far fewer FLOPs."""
        def member_factory():
            return small_lenet_spec().single_exit_network(seed=0)

        # ensemble of 4 independent networks == 4 full forward passes
        member_flops = network_flops(member_factory())
        ensemble_flops = 4 * member_flops
        ours_flops = trained_model.sampling_flops(4)
        assert ours_flops < 0.6 * ensemble_flops


class TestModelToAccelerator:
    def test_trained_model_lowered_to_hls(self, trained_model):
        """Trained multi-exit model -> quantize -> accelerator -> HLS project."""
        for head in trained_model.exits:
            quantize_network(head, QuantizationConfig(weight_bits=8))
        quantize_network(trained_model.backbone, QuantizationConfig(weight_bits=8))

        probe = AcceleratorModel(
            trained_model,
            AcceleratorConfig(
                device="XCKU115",
                weight_bitwidth=8,
                reuse_factor=16,
                num_mc_samples=4,
                mapping=temporal_mapping(4),
            ),
        )
        mapping = optimize_mapping(
            4,
            probe.mc_engine_resources(),
            probe.deterministic_resources(),
            probe.device,
            utilization_cap=0.8,
        )
        accel = AcceleratorModel(
            trained_model,
            AcceleratorConfig(
                device="XCKU115",
                weight_bitwidth=8,
                reuse_factor=16,
                num_mc_samples=4,
                mapping=mapping,
            ),
        )
        assert accel.fits()
        report = SynthesisReport.from_accelerator(accel)
        assert report.latency_ms > 0

        files = HLSCodeGenerator(accel).generate()
        assert "Bayesian" in files["top.cpp"]

    def test_quantized_model_accuracy_preserved(self, trained_model, dataset):
        before = accuracy(
            trained_model.predict_mc(dataset.test.x, 4).mean_probs, dataset.test.y
        )
        for head in trained_model.exits:
            quantize_network(head, QuantizationConfig(weight_bits=8))
        quantize_network(trained_model.backbone, QuantizationConfig(weight_bits=8))
        after = accuracy(
            trained_model.predict_mc(dataset.test.x, 4).mean_probs, dataset.test.y
        )
        assert after >= before - 0.15

    def test_single_exit_bayes_lenet_hardware_cost_of_being_bayesian(self):
        """More MCD layers -> more logic, same BRAM (the Figure 5 claim, end to end)."""
        usages = []
        for n_mcd in (1, 3):
            net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=n_mcd, seed=0)
            accel = AcceleratorModel(
                net,
                AcceleratorConfig(
                    weight_bitwidth=8,
                    reuse_factor=16,
                    num_mc_samples=3,
                    mapping=temporal_mapping(3),
                ),
            )
            usages.append(accel.resources())
        assert usages[1].lut > usages[0].lut
        assert usages[1].bram_18k == usages[0].bram_18k
