"""Tests for MCD insertion, MC sampling, exit ensembles and early exiting."""

import numpy as np
import pytest

from repro.core.mcd import deterministic_forward, insert_mcd_into_head
from repro.core.multi_exit import (
    CONFIDENCE_THRESHOLDS,
    DROPOUT_RATE_GRID,
    ExitHeadConfig,
    build_exit_head,
)
from repro.nn.context import ForwardContext
from repro.nn.layers import Conv2D, Dense, Flatten, MCDropout, ReLU
from repro.nn.model import Network

from ..inference.folded_harness import folded_mc_sample, reseed, reseed_mcd
from ..inference.reference_loops import (
    confidence_early_exit,
    cumulative_exit_ensembles,
)


class TestInsertMCD:
    def _head(self):
        return [Flatten(), Dense(16, name="fc1"), ReLU(), Dense(4, name="fc2")]

    def test_zero_layers_unchanged(self):
        layers = self._head()
        assert insert_mcd_into_head(layers, 0, 0.5) == layers

    def test_one_mcd_before_last_dense(self):
        out = insert_mcd_into_head(self._head(), 1, 0.5)
        types = [type(layer).__name__ for layer in out]
        assert types == ["Flatten", "Dense", "ReLU", "MCDropout", "Dense"]

    def test_two_mcd_layers(self):
        out = insert_mcd_into_head(self._head(), 2, 0.5)
        types = [type(layer).__name__ for layer in out]
        assert types == ["Flatten", "MCDropout", "Dense", "ReLU", "MCDropout", "Dense"]

    def test_more_than_parameterised_caps(self):
        out = insert_mcd_into_head(self._head(), 10, 0.5)
        assert sum(isinstance(layer, MCDropout) for layer in out) == 2

    def test_rate_propagated(self):
        out = insert_mcd_into_head(self._head(), 1, 0.375)
        mcd = [layer for layer in out if isinstance(layer, MCDropout)][0]
        assert mcd.rate == 0.375

    def test_no_parameterised_layers_raises(self):
        with pytest.raises(ValueError):
            insert_mcd_into_head([Flatten(), ReLU()], 1, 0.5)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            insert_mcd_into_head(self._head(), -1, 0.5)


class TestNetworkEngineSampling:
    def _bayes_net(self, rate=0.5):
        net = Network(
            [
                Flatten(),
                Dense(16, name="fc1"),
                ReLU(),
                MCDropout(rate, name="mcd"),
                Dense(3, name="out"),
            ]
        )
        return net.build((2, 4, 4), seed=0)

    def _sample(self, net, x, num_samples, seed=None):
        if seed is not None:
            reseed_mcd(net, seed)
        return folded_mc_sample(net, x, num_samples, ForwardContext())

    def test_sample_shapes(self, rng):
        pred = self._sample(self._bayes_net(), rng.normal(size=(5, 2, 4, 4)), 7, 0)
        assert pred.sample_probs.shape == (7, 5, 3)
        assert pred.mean_probs.shape == (5, 3)
        assert pred.sample_probs.shape[0] == 7

    def test_probabilities_normalised(self, rng):
        pred = self._sample(self._bayes_net(), rng.normal(size=(4, 2, 4, 4)), 5, 0)
        np.testing.assert_allclose(pred.sample_probs.sum(axis=-1), 1.0)
        np.testing.assert_allclose(pred.mean_probs.sum(axis=-1), 1.0)

    def test_samples_differ_for_stochastic_network(self, rng):
        pred = self._sample(self._bayes_net(), rng.normal(size=(3, 2, 4, 4)), 4, 0)
        assert not np.allclose(pred.sample_probs[0], pred.sample_probs[1])

    def test_deterministic_network_identical_samples(self, rng):
        net = Network([Flatten(), Dense(3)]).build((2, 4, 4), seed=0)
        pred = self._sample(net, rng.normal(size=(2, 2, 4, 4)), 3)
        np.testing.assert_allclose(pred.sample_probs[0], pred.sample_probs[2])

    def test_seed_reproducibility(self, rng):
        x = rng.normal(size=(3, 2, 4, 4))
        a = self._sample(self._bayes_net(), x, 4, 5).sample_probs
        b = self._sample(self._bayes_net(), x, 4, 5).sample_probs
        np.testing.assert_allclose(a, b)

    def test_caching_equivalent_to_full_forward(self, rng):
        """Cached-prefix sampling must equal running the full network each time."""
        net = self._bayes_net(rate=0.25)
        x = rng.normal(size=(4, 2, 4, 4))
        cached = self._sample(net, x, 3, 9).sample_probs

        net2 = self._bayes_net(rate=0.25)
        for mine, theirs in zip(net2.parameters(), net.parameters()):
            mine.assign(theirs.value)
        mcd = [layer for layer in net2.layers if isinstance(layer, MCDropout)][0]
        reseed(mcd, 9)
        from repro.nn.layers.activations import softmax

        full = np.stack([softmax(net2.forward(x), axis=-1) for _ in range(3)])
        np.testing.assert_allclose(cached, full, atol=1e-12)

    def test_invalid_sample_count(self, rng):
        with pytest.raises(ValueError):
            self._sample(self._bayes_net(), rng.normal(size=(1, 2, 4, 4)), 0)

    def test_deterministic_forward_ignores_mcd(self, rng):
        net = self._bayes_net()
        x = rng.normal(size=(2, 2, 4, 4))
        a = deterministic_forward(net, x)
        b = deterministic_forward(net, x)
        np.testing.assert_allclose(a, b)


class TestExitHeads:
    def test_conv_feature_head(self):
        cfg = ExitHeadConfig(num_classes=7, mcd_layers=1, dropout_rate=0.25)
        layers = build_exit_head(cfg, (16, 8, 8), name="e0")
        types = [type(layer).__name__ for layer in layers]
        assert "GlobalAvgPool2D" in types and "Dense" in types and "MCDropout" in types

    def test_flat_feature_head(self):
        cfg = ExitHeadConfig(num_classes=3, mcd_layers=0)
        layers = build_exit_head(cfg, (64,), name="e1")
        assert type(layers[-1]).__name__ == "Dense"

    def test_conv_channels_option(self):
        cfg = ExitHeadConfig(num_classes=3, conv_channels=8, mcd_layers=0)
        layers = build_exit_head(cfg, (16, 4, 4), name="e2")
        assert any(isinstance(layer, Conv2D) for layer in layers)

    def test_custom_layers_get_mcd(self):
        cfg = ExitHeadConfig(num_classes=3, mcd_layers=1, dropout_rate=0.5)
        custom = [Flatten(), Dense(10), ReLU(), Dense(3)]
        layers = build_exit_head(cfg, (4, 4, 4), name="e3", custom_layers=custom)
        assert sum(isinstance(layer, MCDropout) for layer in layers) == 1

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            build_exit_head(ExitHeadConfig(num_classes=2), (2, 3, 4, 5))


class TestEnsemblesAndEarlyExit:
    def _probs(self):
        return [
            np.array([[0.9, 0.1], [0.4, 0.6]]),
            np.array([[0.7, 0.3], [0.2, 0.8]]),
        ]

    def test_cumulative_ensembles(self):
        cum = cumulative_exit_ensembles(self._probs())
        np.testing.assert_allclose(cum[0], self._probs()[0])
        np.testing.assert_allclose(cum[1], [[0.8, 0.2], [0.3, 0.7]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cumulative_exit_ensembles([])

    def test_early_exit_high_threshold_uses_last_exit(self):
        result = confidence_early_exit(self._probs(), threshold=0.999)
        assert np.all(result.exit_indices == 1)

    def test_early_exit_low_threshold_uses_first_exit(self):
        result = confidence_early_exit(
            self._probs(), threshold=0.55, use_ensemble=False
        )
        assert result.exit_indices[0] == 0

    def test_exit_distribution_sums_to_one(self):
        result = confidence_early_exit(self._probs(), threshold=0.75)
        assert abs(result.exit_distribution.sum() - 1.0) < 1e-12

    def test_expected_flops_weighted_by_distribution(self):
        result = confidence_early_exit(
            self._probs(), threshold=0.75, use_ensemble=False
        )
        flops = result.expected_flops([1.0, 2.0])
        expected = (result.exit_distribution * np.array([1.0, 2.0])).sum()
        assert abs(flops - expected) < 1e-12

    def test_expected_flops_length_mismatch(self):
        result = confidence_early_exit(self._probs(), threshold=0.75)
        with pytest.raises(ValueError):
            result.expected_flops([1.0])

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            confidence_early_exit(self._probs(), threshold=1.0)

    def test_constant_grids_match_paper(self):
        assert 0.999 in CONFIDENCE_THRESHOLDS and 0.1 in CONFIDENCE_THRESHOLDS
        assert DROPOUT_RATE_GRID == (0.125, 0.25, 0.375, 0.5)
