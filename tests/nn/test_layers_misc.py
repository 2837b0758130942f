"""Tests for pooling, batch-norm, activation, dropout, flatten and residual layers."""

import numpy as np
import pytest

from repro.core.mcd import deterministic_forward
from repro.nn.context import ForwardContext
from repro.nn.layers import (
    BatchNorm,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    MCDropout,
    ReLU,
    ResidualBlock,
)
from repro.nn.layers.activations import log_softmax, relu_, softmax
from repro.nn.model import Network

from ..inference.folded_harness import reseed
from .gradcheck import check_input_gradient, check_parameter_gradients


def build(layer, shape, seed=0):
    layer.build(shape, np.random.default_rng(seed))
    return layer


class TestPooling:
    def test_maxpool_shape(self):
        layer = build(MaxPool2D(2), (3, 8, 8))
        assert layer.output_shape == (3, 4, 4)

    def test_maxpool_values(self):
        layer = build(MaxPool2D(2), (1, 2, 2))
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_allclose(layer.forward(x), [[[[4.0]]]])

    def test_global_avgpool(self, rng):
        layer = build(GlobalAvgPool2D(), (5, 6, 6))
        x = rng.normal(size=(2, 5, 6, 6))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=(2, 3)))

    def test_maxpool_gradient(self, rng):
        layer = build(MaxPool2D(2), (2, 4, 4))
        check_input_gradient(layer, rng.normal(size=(2, 2, 4, 4)))

    def test_global_avgpool_gradient(self, rng):
        layer = build(GlobalAvgPool2D(), (3, 4, 4))
        check_input_gradient(layer, rng.normal(size=(2, 3, 4, 4)))

    def test_pooling_has_no_parameters(self):
        assert build(MaxPool2D(2), (1, 4, 4)).num_parameters == 0

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)

    @pytest.mark.parametrize("pool,stride", [(3, 1), (4, 4), (3, 2)])
    def test_maxpool_matches_window_maxima(self, rng, pool, stride):
        """Overlapping windows, and a window too long to scan (4·4 > 9)."""
        layer = build(MaxPool2D(pool, stride=stride), (2, 8, 8))
        x = rng.normal(size=(3, 2, 8, 8))
        _, out_h, out_w = layer.output_shape
        want = np.empty((3, 2, out_h, out_w))
        for i in range(out_h):
            for j in range(out_w):
                top, left = i * stride, j * stride
                window = x[:, :, top : top + pool, left : left + pool]
                want[:, :, i, j] = window.max(axis=(2, 3))
        np.testing.assert_array_equal(layer.forward(x), want)

    @pytest.mark.parametrize("pool,stride", [(3, 1), (4, 4)])
    def test_maxpool_gradient_other_windows(self, rng, pool, stride):
        layer = build(MaxPool2D(pool, stride=stride), (2, 8, 8))
        check_input_gradient(layer, rng.normal(size=(2, 2, 8, 8)))

    def test_maxpool_gradient_goes_to_the_maximum_only(self, rng):
        layer = build(MaxPool2D(2), (1, 4, 4))
        x = rng.normal(size=(1, 1, 4, 4))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.sum() == out.size
        np.testing.assert_array_equal(grad != 0, np.isin(x, out))

    def test_pooling_rejects_input_without_channels(self):
        with pytest.raises(ValueError):
            build(MaxPool2D(2), (8, 8))
        with pytest.raises(ValueError):
            build(GlobalAvgPool2D(), (8,))


class TestActivations:
    def test_relu_values(self):
        layer = build(ReLU(), (4,))
        x = np.array([[-1.0, 0.0, 2.0, -3.0]])
        np.testing.assert_allclose(layer.forward(x), [[0.0, 0.0, 2.0, 0.0]])

    def test_relu_gradient(self, rng):
        layer = build(ReLU(), (6,))
        check_input_gradient(layer, rng.normal(size=(3, 6)) + 0.1)

    def test_in_place_relu_is_the_layer_bit_for_bit(self, rng):
        layer = build(ReLU(), (6,))
        x = rng.normal(size=(5, 6))
        x[0, :4] = [0.0, -0.0, -np.inf, np.nan]
        with np.errstate(invalid="ignore"):  # -inf * False is nan, on purpose
            want = layer.forward(x)
            got = relu_(x)
        assert got is x
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[got == 0]).any()  # negatives became -0.0

    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(5, 7)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))

    def test_softmax_numerically_stable(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_log_softmax_consistent_with_softmax(self, rng):
        logits = rng.normal(size=(4, 6))
        np.testing.assert_allclose(np.exp(log_softmax(logits)), softmax(logits))


class TestBatchNorm:
    def test_training_normalises(self, rng):
        layer = build(BatchNorm(), (4, 6, 6))
        x = rng.normal(loc=3.0, scale=2.0, size=(16, 4, 6, 6))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng):
        layer = build(BatchNorm(momentum=0.0), (3,))
        x = rng.normal(loc=5.0, size=(64, 3))
        layer.forward(x, training=True)
        np.testing.assert_allclose(layer.running_mean, x.mean(axis=0))

    def test_inference_uses_running_stats(self, rng):
        layer = build(BatchNorm(), (3,))
        x = rng.normal(size=(8, 3))
        out = layer.forward(x, training=False)
        expected = (x - layer.running_mean) / np.sqrt(layer.running_var + layer.epsilon)
        np.testing.assert_allclose(out, expected)

    def test_gradient_dense_input(self, rng):
        layer = build(BatchNorm(), (5,))
        check_input_gradient(layer, rng.normal(size=(6, 5)), atol=1e-5)

    def test_parameter_gradients(self, rng):
        layer = build(BatchNorm(), (3,))
        check_parameter_gradients(layer, rng.normal(size=(6, 3)), atol=1e-5)

    def test_gradient_conv_input(self, rng):
        layer = build(BatchNorm(), (2, 3, 3))
        check_input_gradient(layer, rng.normal(size=(4, 2, 3, 3)), atol=1e-5)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            BatchNorm(momentum=1.5)

    @pytest.mark.parametrize("shape", [(4, 5, 3, 3), (7, 5)])
    def test_in_place_inference_is_forward_bit_for_bit(self, rng, shape):
        layer = build(BatchNorm(), shape[1:])
        layer.running_mean = rng.normal(size=5)
        layer.running_var = rng.uniform(0.3, 3.0, size=5)
        layer.gamma.assign(rng.normal(1.0, 0.4, size=5))
        layer.beta.assign(rng.normal(size=5))
        x = rng.normal(size=shape)
        want = layer.forward(x, training=False)
        got = layer.normalize_(x)
        assert got is x
        assert got.tobytes() == want.tobytes()
        if len(shape) == 4:
            # the channels-last (N·H·W, C) matrix of a convolution's GEMM
            x = rng.normal(size=shape)
            want = layer.forward(x, training=False)
            matrix = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, 5)
            layer.normalize_(matrix)
            got = matrix.reshape(4, 3, 3, 5).transpose(0, 3, 1, 2)
            np.testing.assert_array_equal(got, want)


class TestDropout:
    def test_mc_dropout_active_at_inference(self):
        layer = build(MCDropout(0.5, seed=0), (200,))
        x = np.ones((2, 200))
        out = layer.forward(x, training=False)
        assert np.any(out == 0)

    def test_mc_dropout_samples_differ(self):
        layer = build(MCDropout(0.5, seed=0), (100,))
        x = np.ones((1, 100))
        assert not np.allclose(layer.forward(x), layer.forward(x))

    def test_mc_dropout_reseed_reproducible(self):
        layer = build(MCDropout(0.5), (64,))
        x = np.ones((2, 64))
        reseed(layer, 7)
        a = layer.forward(x)
        reseed(layer, 7)
        b = layer.forward(x)
        np.testing.assert_allclose(a, b)

    def test_inverted_scaling_preserves_expectation(self):
        layer = build(MCDropout(0.25, seed=3), (50,))
        x = np.ones((200, 50))
        out = layer.forward(x)
        assert abs(out.mean() - 1.0) < 0.05

    def test_filter_wise_drops_whole_channels(self):
        layer = build(MCDropout(0.5, seed=1), (8, 4, 4))
        x = np.ones((2, 8, 4, 4))
        out = layer.forward(x)
        # each channel is either fully dropped or fully kept
        per_channel = out.reshape(2, 8, -1)
        for n in range(2):
            for c in range(8):
                vals = np.unique(per_channel[n, c])
                assert len(vals) == 1

    def test_filter_wise_dense_mask_shape_and_semantics(self):
        """On (N, F) activations every feature is a single-element filter.

        So the filter-wise mask covers the full ``(batch, features)`` shape:
        one draw per feature, not per example or shared across the batch.
        """
        layer = build(MCDropout(0.5, seed=123), (32,))
        x = np.ones((6, 32))  # so the output is the scaled mask itself
        mask = layer.forward(x)
        assert mask.shape == (6, 32)
        # rows must not be forced to a single value
        assert any(len(np.unique(mask[n])) == 2 for n in range(6))

    def test_filter_wise_conv_mask_shape(self):
        layer = build(MCDropout(0.5, seed=5), (8, 4, 4))
        ctx = ForwardContext()
        layer.forward(np.ones((3, 8, 4, 4)), ctx=ctx)
        assert ctx.saved(layer).shape == (3, 8, 1, 1)

    def test_deterministic_forward_is_identity(self, rng):
        net = Network([MCDropout(0.5)]).build((6,), seed=0)
        x = rng.normal(size=(3, 6))
        np.testing.assert_array_equal(deterministic_forward(net, x), x)

    def test_zero_rate_is_identity(self, rng):
        layer = build(MCDropout(0.0), (6,))
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_backward_uses_same_mask(self):
        layer = build(MCDropout(0.5, seed=0), (40,))
        x = np.ones((1, 40))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_allclose(grad, out)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            MCDropout(1.0)

    def test_stochastic_flag(self):
        assert MCDropout(0.1).stochastic is True

    def test_mask_holds_zero_or_the_inverse_keep_rate(self):
        for dtype in (np.float64, np.float32):
            layer = build(MCDropout(0.25, seed=2), (64,))
            out = layer.forward(np.ones((8, 64), dtype=dtype))
            assert out.dtype == dtype
            assert set(np.unique(out)) <= {dtype(0.0), dtype(1.0) / dtype(0.75)}

    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.8])
    def test_kept_share_matches_keep_prob(self, rate):
        layer = build(MCDropout(rate, seed=11), (500,))
        out = layer.forward(np.ones((40, 500)))
        assert abs(np.mean(out != 0) - layer.keep_prob) < 0.02

    def test_different_seeds_draw_different_masks(self):
        x = np.ones((2, 128))
        a = build(MCDropout(0.5, seed=1), (128,)).forward(x)
        b = build(MCDropout(0.5, seed=2), (128,)).forward(x)
        assert not np.array_equal(a, b)

    def test_describe_reports_rate_and_mode(self):
        info = build(MCDropout(0.3), (4, 2, 2)).describe()
        assert info["rate"] == 0.3
        assert info["stochastic_at_inference"] is True


class TestFlattenAndResidual:
    def test_flatten_shape(self, rng):
        layer = build(Flatten(), (3, 4, 5))
        out = layer.forward(rng.normal(size=(2, 3, 4, 5)))
        assert out.shape == (2, 60)

    def test_flatten_gradient_restores_shape(self, rng):
        layer = build(Flatten(), (2, 3, 3))
        x = rng.normal(size=(2, 2, 3, 3))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_residual_identity_shape(self, rng):
        block = build(ResidualBlock(4), (4, 6, 6))
        assert block.output_shape == (4, 6, 6)
        assert block.shortcut_conv is None

    def test_residual_projection_when_channels_change(self):
        block = build(ResidualBlock(8, stride=2), (4, 8, 8))
        assert block.output_shape == (8, 4, 4)
        assert block.shortcut_conv is not None

    def test_residual_forward_shape(self, rng):
        block = build(ResidualBlock(6, stride=2), (3, 8, 8))
        out = block.forward(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 6, 4, 4)

    def test_residual_parameters_collected(self):
        block = build(ResidualBlock(4), (4, 6, 6))
        names = [p.name for p in block.parameters()]
        assert any("conv1" in n for n in names)
        assert any("conv2" in n for n in names)
        assert block.num_parameters == sum(p.size for p in block.parameters())

    def test_residual_gradient_without_batchnorm(self, rng):
        block = build(ResidualBlock(3, use_batchnorm=False), (3, 4, 4))
        check_input_gradient(block, rng.normal(size=(2, 3, 4, 4)), atol=1e-5)

    def test_residual_projection_gradient(self, rng):
        block = build(ResidualBlock(4, stride=2, use_batchnorm=False), (2, 4, 4))
        check_input_gradient(block, rng.normal(size=(2, 2, 4, 4)), atol=1e-5)

    @pytest.mark.parametrize("stride,filters", [(1, 3), (2, 6)])
    def test_residual_inference_forward_is_forward_bit_for_bit(
        self, rng, stride, filters
    ):
        """Identity and projection shortcuts, from either memory order."""
        block = build(ResidualBlock(filters, stride=stride), (3, 6, 6))
        for bn in (block.bn1, block.bn2, block.shortcut_bn):
            if bn is not None:
                bn.running_mean = rng.normal(size=filters)
                bn.running_var = rng.uniform(0.3, 3.0, size=filters)
        contiguous = rng.normal(size=(4, 3, 6, 6))
        channels_last = np.ascontiguousarray(
            contiguous.transpose(0, 2, 3, 1)
        ).transpose(0, 3, 1, 2)
        for x in (contiguous, channels_last):
            kept = x.copy()
            want = block.forward(x, training=False)
            got = block.forward_inference(x, lambda conv, inp: conv.forward(inp))
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
            assert not np.shares_memory(got, x)
            np.testing.assert_array_equal(x, kept)

    def test_residual_describe_contains_sublayers(self):
        block = build(ResidualBlock(4), (4, 6, 6))
        desc = block.describe()
        assert desc["type"] == "ResidualBlock"
        assert len(desc["sublayers"]) >= 6
