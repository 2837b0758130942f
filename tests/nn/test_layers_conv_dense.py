"""Tests for the Conv2D and Dense layers, including gradient checks."""

import numpy as np
import pytest

from repro.nn import SGD
from repro.nn.layers import Conv2D, Dense

from .gradcheck import check_input_gradient, check_parameter_gradients


def build(layer, shape, seed=0):
    layer.build(shape, np.random.default_rng(seed))
    return layer


class TestConv2DShapes:
    def test_same_padding_output_shape(self):
        layer = build(Conv2D(8, 3, padding="same"), (3, 16, 16))
        assert layer.output_shape == (8, 16, 16)

    def test_valid_padding_output_shape(self):
        layer = build(Conv2D(4, 5, padding=0), (1, 28, 28))
        assert layer.output_shape == (4, 24, 24)

    def test_strided_output_shape(self):
        layer = build(Conv2D(4, 3, stride=2, padding=1), (3, 16, 16))
        assert layer.output_shape == (4, 8, 8)

    def test_forward_batch_shape(self, rng):
        layer = build(Conv2D(6, 3), (2, 10, 10))
        out = layer.forward(rng.normal(size=(5, 2, 10, 10)))
        assert out.shape == (5, 6, 10, 10)

    def test_parameter_count(self):
        layer = build(Conv2D(8, 3, padding=1), (4, 6, 6))
        assert layer.num_parameters == 8 * 4 * 3 * 3 + 8

    def test_no_bias_parameter_count(self):
        layer = build(Conv2D(8, 3, use_bias=False), (4, 6, 6))
        assert layer.num_parameters == 8 * 4 * 3 * 3

    def test_invalid_filters(self):
        with pytest.raises(ValueError):
            Conv2D(0, 3)

    def test_same_padding_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(4, 2, padding="same")

    def test_wrong_input_rank_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(4, 3).compute_output_shape((16, 16))


class TestConv2DValues:
    def test_identity_kernel(self, rng):
        """A 1x1 convolution with identity weights reproduces the input channel."""
        layer = build(Conv2D(1, 1, padding=0, use_bias=False), (1, 5, 5))
        layer.weight.value[...] = 1.0
        x = rng.normal(size=(2, 1, 5, 5))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_bias_added(self):
        layer = build(Conv2D(2, 1, padding=0), (1, 3, 3))
        layer.weight.value[...] = 0.0
        layer.bias.value[...] = np.array([1.5, -2.0])
        out = layer.forward(np.zeros((1, 1, 3, 3)))
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_input_gradient(self, rng):
        layer = build(Conv2D(3, 3, padding=1), (2, 5, 5))
        check_input_gradient(layer, rng.normal(size=(2, 2, 5, 5)))

    def test_parameter_gradients(self, rng):
        layer = build(Conv2D(2, 3, padding=1), (2, 4, 4))
        check_parameter_gradients(layer, rng.normal(size=(2, 2, 4, 4)))

    def test_strided_gradients(self, rng):
        layer = build(Conv2D(2, 3, stride=2, padding=1), (1, 6, 6))
        check_input_gradient(layer, rng.normal(size=(2, 1, 6, 6)))


class TestDense:
    def test_output_shape(self):
        layer = build(Dense(7), (12,))
        assert layer.output_shape == (7,)

    def test_requires_flat_input(self):
        with pytest.raises(ValueError):
            Dense(4).compute_output_shape((3, 8, 8))

    def test_linear_map(self, rng):
        layer = build(Dense(3), (4,))
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_parameter_count(self):
        layer = build(Dense(10), (20,))
        assert layer.num_parameters == 20 * 10 + 10

    def test_input_gradient(self, rng):
        layer = build(Dense(6), (5,))
        check_input_gradient(layer, rng.normal(size=(3, 5)))

    def test_parameter_gradients(self, rng):
        layer = build(Dense(4), (6,))
        check_parameter_gradients(layer, rng.normal(size=(3, 6)))

    def test_gradient_accumulates_across_backward_calls(self, rng):
        layer = build(Dense(3), (4,))
        x = rng.normal(size=(2, 4))
        g = rng.normal(size=(2, 3))
        layer.forward(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_zero_grad(self, rng):
        layer = build(Dense(3), (4,))
        layer.forward(rng.normal(size=(2, 4)))
        layer.backward(rng.normal(size=(2, 3)))
        SGD(layer.parameters(), lr=0.1).zero_grad()
        assert np.all(layer.weight.grad == 0)
        assert np.all(layer.bias.grad == 0)
