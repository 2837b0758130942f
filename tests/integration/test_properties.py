"""Property-based tests over cross-module invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MultiExitConfig,
    multi_exit_sampling_flops,
)
from repro.hw import XCKU115, MappingPlan, PowerModel, ResourceUsage
from repro.nn.layers.activations import log_softmax, softmax
from repro.nn.tensor import conv_output_size, one_hot
from repro.quantization import FixedPointFormat
from repro.uncertainty import (
    brier_score,
    expected_calibration_error,
    mutual_information,
    negative_log_likelihood,
    predictive_entropy,
)

from ..inference.reference_loops import confidence_early_exit


def _random_probs(seed: int, n: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.random((n, k)) + 1e-6
    return raw / raw.sum(axis=1, keepdims=True)


class TestSoftmaxProperties:
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(1, 8),
        k=st.integers(2, 12),
        scale=st.floats(0.1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_a_distribution(self, seed, n, k, scale):
        logits = np.random.default_rng(seed).normal(size=(n, k)) * scale
        probs = softmax(logits)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @given(seed=st.integers(0, 1000), shift=st.floats(-100, 100))
    @settings(max_examples=30, deadline=None)
    def test_softmax_shift_invariance(self, seed, shift):
        logits = np.random.default_rng(seed).normal(size=(4, 6))
        np.testing.assert_allclose(softmax(logits), softmax(logits + shift), atol=1e-10)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_log_softmax_matches_log_of_softmax(self, seed):
        logits = np.random.default_rng(seed).normal(size=(3, 7)) * 5
        np.testing.assert_allclose(
            log_softmax(logits), np.log(softmax(logits)), atol=1e-10
        )


class TestMetricBounds:
    @given(seed=st.integers(0, 500), n=st.integers(2, 40), k=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_metric_ranges(self, seed, n, k):
        probs = _random_probs(seed, n, k)
        labels = np.random.default_rng(seed + 1).integers(0, k, n)
        assert 0.0 <= expected_calibration_error(probs, labels) <= 1.0
        assert 0.0 <= brier_score(probs, labels) <= 2.0
        assert negative_log_likelihood(probs, labels) >= 0.0
        ent = predictive_entropy(probs)
        assert np.all(ent >= -1e-12) and np.all(ent <= np.log(k) + 1e-9)

    @given(
        seed=st.integers(0, 500),
        s=st.integers(2, 6),
        n=st.integers(2, 20),
        k=st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_mutual_information_non_negative_and_bounded(self, seed, s, n, k):
        samples = np.stack([_random_probs(seed + i, n, k) for i in range(s)])
        mi = mutual_information(samples)
        assert np.all(mi >= -1e-9)
        assert np.all(mi <= predictive_entropy(samples.mean(axis=0)) + 1e-9)

    @given(seed=st.integers(0, 500), threshold=st.floats(0.05, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_early_exit_distribution_sums_to_one(self, seed, threshold):
        probs_list = [_random_probs(seed + i, 15, 4) for i in range(3)]
        result = confidence_early_exit(probs_list, threshold)
        assert abs(result.exit_distribution.sum() - 1.0) < 1e-12
        assert np.all(result.exit_indices >= 0) and np.all(result.exit_indices < 3)


class TestCostModelProperties:
    @given(
        main=st.floats(1, 1e9),
        exit_=st.floats(0.01, 1e8),
        samples=st.integers(1, 64),
        exits=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_exit_never_more_expensive(self, main, exit_, samples, exits):
        exits = min(exits, samples)
        ours = multi_exit_sampling_flops(main, exit_, samples, exits)
        naive = samples * (main + exit_)  # Equation 1: single-exit sampling
        assert ours <= naive + 1e-6

    @given(
        samples=st.integers(1, 32),
        engines=st.integers(1, 32),
        cycles=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_mapping_latency_between_spatial_and_temporal(
        self, samples, engines, cycles
    ):
        engines = min(engines, samples)
        plan = MappingPlan(num_samples=samples, num_engines=engines)
        latency = plan.bayesian_latency_cycles(cycles)
        assert cycles <= latency <= samples * cycles or cycles == 0

    @given(
        lut=st.floats(0, 5e5),
        ff=st.floats(0, 1e6),
        bram=st.floats(0, 2000),
        dsp=st.floats(0, 4000),
        streams=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_breakdown_consistency(self, lut, ff, bram, dsp, streams):
        usage = ResourceUsage(bram_18k=bram, dsp=dsp, ff=ff, lut=lut)
        power = PowerModel().estimate(usage, XCKU115, 181.0, streams)
        parts = power.as_dict()
        assert parts["total"] == pytest.approx(parts["dynamic"] + parts["static"])
        assert all(v >= 0 for v in parts.values())
        assert abs(sum(power.percentages().values()) - 1.0) < 1e-9


class TestQuantizationAndShapes:
    @given(
        bits=st.integers(2, 20), integer=st.integers(1, 12), seed=st.integers(0, 200)
    )
    @settings(max_examples=60, deadline=None)
    def test_quantization_idempotent_and_bounded(self, bits, integer, seed):
        integer = min(integer, bits)
        fmt = FixedPointFormat(bits, integer)
        x = np.random.default_rng(seed).normal(scale=3.0, size=64)
        q = fmt.quantize(x)
        np.testing.assert_allclose(fmt.quantize(q), q)
        assert np.all(q <= fmt.max_value + 1e-12) and np.all(q >= fmt.min_value - 1e-12)

    @given(
        size=st.integers(1, 64),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_conv_output_size_positive_or_raises(self, size, kernel, stride, padding):
        try:
            out = conv_output_size(size, kernel, stride, padding)
        except ValueError:
            return
        assert out >= 1
        # the last window must fit inside the padded input
        assert (out - 1) * stride + kernel <= size + 2 * padding

    @given(k=st.integers(2, 20), n=st.integers(1, 50), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_one_hot_roundtrip(self, k, n, seed):
        labels = np.random.default_rng(seed).integers(0, k, n)
        encoded = one_hot(labels, k)
        np.testing.assert_array_equal(encoded.argmax(axis=1), labels)


class TestConfigValidationProperties:
    @given(exits=st.integers(-3, 6), rate=st.floats(-0.5, 1.5), mcd=st.integers(-2, 4))
    @settings(max_examples=60, deadline=None)
    def test_multi_exit_config_validation_is_total(self, exits, rate, mcd):
        """The config either constructs cleanly or raises ValueError — never crashes."""
        try:
            config = MultiExitConfig(
                num_exits=exits, dropout_rate=rate, mcd_layers_per_exit=mcd
            )
        except ValueError:
            return
        assert config.num_exits >= 1
        assert 0.0 <= config.dropout_rate < 1.0
        assert config.mcd_layers_per_exit >= 0
