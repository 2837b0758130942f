"""Tests for fixed-point formats and network quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Network
from repro.nn.layers import Dense, Flatten, ReLU
from repro.quantization import (
    STANDARD_BITWIDTHS,
    FixedPointFormat,
    QuantizationConfig,
    quantize_network,
)


class TestFixedPointFormat:
    def test_resolution_and_range(self):
        fmt = FixedPointFormat(8, 4)
        assert fmt.fractional_bits == 4
        assert fmt.resolution == 1 / 16
        assert fmt.max_value == 8 - 1 / 16
        assert fmt.min_value == -8
        assert fmt.num_levels == 256

    def test_quantize_rounds_to_grid(self):
        fmt = FixedPointFormat(8, 4)
        assert fmt.quantize(0.30) == pytest.approx(0.3125)
        assert fmt.quantize(0.0) == 0.0

    def test_saturation(self):
        fmt = FixedPointFormat(6, 3)
        assert fmt.quantize(100.0) == fmt.max_value
        assert fmt.quantize(-100.0) == fmt.min_value

    def test_idempotent(self, rng):
        fmt = FixedPointFormat(8, 3)
        x = rng.normal(size=100)
        once = fmt.quantize(x)
        np.testing.assert_allclose(fmt.quantize(once), once)

    def test_quantization_error_bounded_by_half_lsb(self, rng):
        fmt = FixedPointFormat(10, 4)
        x = rng.uniform(-4, 4, size=500)  # well inside the representable range
        err = np.abs(x - fmt.quantize(x))
        assert err.max() <= fmt.resolution / 2 + 1e-12

    def test_more_bits_less_error(self, rng):
        x = rng.normal(size=1000)
        errors = [
            FixedPointFormat.for_range(3.0, bits).quantization_error(x)
            for bits in STANDARD_BITWIDTHS
        ]
        assert errors == sorted(errors, reverse=True)

    def test_to_integer_codes(self):
        fmt = FixedPointFormat(8, 4)
        codes = fmt.to_integer(np.array([0.0, 1.0, -1.0]))
        np.testing.assert_array_equal(codes, [0, 16, -16])

    def test_for_range_covers_value(self):
        fmt = FixedPointFormat.for_range(5.0, 8)
        assert fmt.max_value >= 5.0 - fmt.resolution

    def test_invalid_formats(self):
        with pytest.raises(ValueError):
            FixedPointFormat(1, 1)
        with pytest.raises(ValueError):
            FixedPointFormat(8, 0)
        with pytest.raises(ValueError):
            FixedPointFormat(8, 9)

    def test_str(self):
        assert str(FixedPointFormat(8, 3)) == "ap_fixed<8,3>"

    @given(bits=st.sampled_from(STANDARD_BITWIDTHS), max_abs=st.floats(0.01, 100))
    @settings(max_examples=50, deadline=None)
    def test_for_range_property(self, bits, max_abs):
        fmt = FixedPointFormat.for_range(max_abs, bits)
        assert fmt.total_bits == bits
        assert 1 <= fmt.integer_bits <= bits


class TestQuantizeNetwork:
    def _net(self):
        return Network(
            [Flatten(), Dense(16, name="fc1"), ReLU(), Dense(4, name="fc2")]
        ).build((1, 6, 6), seed=0)

    def test_weights_on_grid_after_quantization(self):
        net = self._net()
        result = quantize_network(net, QuantizationConfig(weight_bits=6))
        for param in net.parameters():
            fmt = result.weight_formats[param.name]
            np.testing.assert_allclose(fmt.quantize(param.value), param.value)

    def test_not_in_place_preserves_weights(self):
        net = self._net()
        before = net.get_weights()
        quantize_network(net, QuantizationConfig(weight_bits=4), in_place=False)
        for a, b in zip(before, net.get_weights()):
            np.testing.assert_allclose(a, b)

    def test_per_layer_override(self):
        net = self._net()
        config = QuantizationConfig(weight_bits=8, per_layer_weight_bits={"fc2": 4})
        result = quantize_network(net, config)
        fc2_weight = [n for n in result.weight_formats if n.startswith("fc2")][0]
        fc1_weight = [n for n in result.weight_formats if n.startswith("fc1")][0]
        assert result.weight_formats[fc2_weight].total_bits == 4
        assert result.weight_formats[fc1_weight].total_bits == 8

    def test_mean_rmse_decreases_with_bits(self):
        rmse = []
        for bits in (4, 8, 16):
            net = self._net()
            rmse.append(
                quantize_network(net, QuantizationConfig(weight_bits=bits)).mean_rmse
            )
        assert rmse == sorted(rmse, reverse=True)

    def test_unbuilt_network_rejected(self):
        with pytest.raises(ValueError):
            quantize_network(Network([Dense(2)]), QuantizationConfig())

    def test_quantized_network_still_predicts(self, rng):
        net = self._net()
        x = rng.normal(size=(3, 1, 6, 6))
        before = net.predict(x)
        quantize_network(net, QuantizationConfig(weight_bits=8))
        after = net.predict(x)
        assert after.shape == before.shape
        assert np.max(np.abs(after - before)) < 1.0  # 8-bit quantization is mild
