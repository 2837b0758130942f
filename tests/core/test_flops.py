"""Tests for FLOP counting and the Eq. 1–3 cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flops import (
    FlopBreakdown,
    layer_flops,
    multi_exit_sampling_flops,
    network_flops,
    reduction_rate,
)
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MCDropout,
    ReLU,
    ResidualBlock,
)
from repro.nn.model import Network


def build(layer, shape):
    layer.build(shape, np.random.default_rng(0))
    return layer


class TestLayerFlops:
    def test_conv_flops_formula(self):
        layer = build(Conv2D(8, 3, padding=1), (4, 10, 10))
        expected = 2 * 8 * 10 * 10 * 4 * 9 + 8 * 10 * 10
        assert layer_flops(layer) == expected

    def test_dense_flops_formula(self):
        layer = build(Dense(16), (32,))
        assert layer_flops(layer) == 2 * 32 * 16 + 16

    def test_dense_no_bias(self):
        layer = build(Dense(16, use_bias=False), (32,))
        assert layer_flops(layer) == 2 * 32 * 16

    def test_unbuilt_layer_raises(self):
        with pytest.raises(ValueError):
            layer_flops(Dense(4))

    def test_flatten_is_free(self):
        assert layer_flops(build(Flatten(), (3, 4, 4))) == 0

    def test_relu_counts_elements(self):
        assert layer_flops(build(ReLU(), (3, 4, 4))) == 48

    def test_mcd_counts_mask_and_scale(self):
        assert layer_flops(build(MCDropout(0.5), (10,))) == 20

    def test_residual_block_includes_all_sublayers(self):
        block = build(ResidualBlock(4, use_batchnorm=False), (4, 6, 6))
        total = sum(layer_flops(s) for s in block.sublayers()) + 4 * 6 * 6
        assert layer_flops(block) == total


class TestNetworkFlops:
    def test_sum_of_layers(self):
        net = Network(
            [Conv2D(4, 3, padding=1), ReLU(), MaxPool2D(2), Flatten(), Dense(5)]
        )
        net.build((1, 8, 8))
        assert network_flops(net) == sum(layer_flops(layer) for layer in net.layers)

    def test_unbuilt_network_raises(self):
        with pytest.raises(ValueError):
            network_flops(Network([Dense(3)]))


class TestSamplingCostModel:
    def test_equation2_divisible(self):
        # 8 samples over 4 exits -> 2 passes of the exits
        assert multi_exit_sampling_flops(100, 10, 8, 4) == 100 + 2 * 10

    def test_equation2_rounds_up(self):
        assert multi_exit_sampling_flops(100, 10, 5, 4) == 100 + 2 * 10

    def test_single_exit_matches_equation1_per_pass(self):
        # one exit: every sample re-runs backbone + exit... Eq.2 with N_exit=1
        # only re-runs the exit because the backbone result is cached.
        assert multi_exit_sampling_flops(100, 10, 3, 1) == 100 + 3 * 10

    def test_reduction_rate_equation3(self):
        alpha, s, e = 0.1, 8, 4
        expected = (1 + alpha) / (1 / s + alpha / e)
        assert abs(reduction_rate(alpha, s, e) - expected) < 1e-12

    @pytest.mark.parametrize("samples,exits", [(8, 4), (6, 2), (5, 5), (3, 1)])
    def test_equation3_is_equation1_over_equation2(self, samples, exits):
        main, exit_ = 100, 10
        single_exit = samples * (main + exit_)  # Equation 1
        multi_exit = multi_exit_sampling_flops(main, exit_, samples, exits)
        assert reduction_rate(exit_ / main, samples, exits) == pytest.approx(
            single_exit / multi_exit
        )

    def test_reduction_rate_single_sample_single_exit_is_one(self):
        assert abs(reduction_rate(0.3, 1, 1) - 1.0) < 1e-12

    @given(
        alpha=st.floats(0.001, 10.0),
        samples=st.integers(1, 64),
        exits=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_reduction_rate_at_least_one(self, alpha, samples, exits):
        """Multi-exit sampling never costs more than single-exit sampling."""
        if exits > samples:
            exits = samples
        assert reduction_rate(alpha, samples, exits) >= 1.0 - 1e-12

    @given(alpha=st.floats(0.001, 1.0), samples=st.integers(2, 32))
    @settings(max_examples=50, deadline=None)
    def test_more_exits_never_worse(self, alpha, samples):
        r1 = reduction_rate(alpha, samples, 1)
        r2 = reduction_rate(alpha, samples, min(2, samples))
        assert r2 >= r1 - 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            reduction_rate(-0.1, 4, 2)
        with pytest.raises(ValueError):
            multi_exit_sampling_flops(10, 1, 4, 0)


class TestFlopBreakdown:
    def test_alpha_and_totals(self):
        fb = FlopBreakdown(backbone_flops=1000, exit_flops=[50, 150])
        assert fb.total_exit_flops == 200
        assert abs(fb.alpha - 0.2) < 1e-12
        assert fb.num_exits == 2
        assert fb.single_pass_flops() == 1200

    def test_mc_sampling_flops_uses_equation2(self):
        fb = FlopBreakdown(backbone_flops=1000, exit_flops=[100, 100])
        assert fb.mc_sampling_flops(4) == 1000 + 2 * 200

    def test_zero_backbone_alpha_raises(self):
        with pytest.raises(ZeroDivisionError):
            FlopBreakdown(backbone_flops=0, exit_flops=[10]).alpha
