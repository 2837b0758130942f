"""Fused stochastic-suffix kernel: bit-exactness against the legacy loop.

The fusion (:func:`repro.inference.folding.folded_forward_range`) collapses
an ``MCDropout -> Dense`` pair into one pass per sample block: the scaled
keep-mask is folded into the GEMM operand instead of materialising the
masked ``(S·N, F)`` intermediate.  These tests pin the acceptance criterion:
for every suffix composition (Dense-only, Conv2D-interleaved, ResidualBlock)
and S in {1, 4, 10}, the fused engine is **bit-identical** to the legacy
one-pass-per-sample loop — and the fusion actually engages, so the guarantee
is not vacuously about the unfused path.
"""

import numpy as np
import pytest

from repro.core import single_exit_bayesnet
from repro.inference.engine import NetworkEngine
from repro.nn.context import ForwardContext
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    MCDropout,
    ReLU,
    ResidualBlock,
)
from repro.nn.model import Network

from ..conftest import small_lenet_spec
from .reference_loops import looped_mc_sample


def _dense_suffix_layers():
    return [
        Flatten(),
        Dense(32, name="fc1"),
        ReLU(),
        MCDropout(0.25, name="mcd0"),
        Dense(5, name="classifier"),
    ]


def _conv_suffix_layers():
    # filter-wise MCD on 4-D features (not fused) feeding a Conv2D, then a
    # fused MCD -> Dense pair at the end: both dispatch arms in one network
    return [
        Conv2D(6, 3, padding="same", name="c1"),
        ReLU(),
        MCDropout(0.25, filter_wise=True, name="mcd0"),
        Conv2D(6, 3, padding="same", name="c2"),
        ReLU(),
        Flatten(),
        MCDropout(0.375, name="mcd1"),
        Dense(5, name="classifier"),
    ]


def _residual_suffix_layers():
    return [
        ResidualBlock(8, stride=1, name="res"),
        GlobalAvgPool2D(),
        MCDropout(0.25, name="mcd0"),
        Dense(5, name="classifier"),
    ]


SUFFIXES = {
    "dense": (_dense_suffix_layers, (1, 6, 6)),
    "conv": (_conv_suffix_layers, (3, 8, 8)),
    "residual": (_residual_suffix_layers, (8, 6, 6)),
}


def _twin_networks(arch):
    layer_fn, shape = SUFFIXES[arch]
    nets = []
    for _ in range(2):
        net = Network(layer_fn())
        net.build(shape, seed=0)
        nets.append(net)
    return nets[0], nets[1], shape


@pytest.mark.parametrize("num_samples", [1, 4, 10])
@pytest.mark.parametrize("arch", sorted(SUFFIXES))
def test_fused_suffix_bit_identical_to_legacy_loop(arch, num_samples):
    fused_net, looped_net, shape = _twin_networks(arch)
    x = np.random.default_rng(3).normal(size=(6,) + shape)

    fused = NetworkEngine(fused_net, seed=7).sample(x, num_samples)
    NetworkEngine(looped_net, seed=7)  # reseed the twin's MCD layers identically
    looped = looped_mc_sample(looped_net, x, num_samples)

    np.testing.assert_array_equal(fused.sample_probs, looped.sample_probs)
    np.testing.assert_array_equal(fused.mean_probs, looped.mean_probs)


@pytest.mark.parametrize("num_samples", [1, 4, 10])
def test_fused_suffix_on_full_architecture(num_samples):
    """End-to-end over a real backbone: MCD layers deep enough to hit convs."""
    fused_net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=3, seed=0)
    looped_net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=3, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 1, 12, 12))

    fused = NetworkEngine(fused_net, seed=2).sample(x, num_samples)
    NetworkEngine(looped_net, seed=2)
    looped = looped_mc_sample(looped_net, x, num_samples)
    np.testing.assert_array_equal(fused.sample_probs, looped.sample_probs)


def test_fusion_engages_on_dense_suffix(monkeypatch):
    """The MCD->Dense pair really takes the fused path, not the fallback."""
    net, _, shape = _twin_networks("dense")
    engine = NetworkEngine(net, seed=0)
    calls = []
    original = Dense.forward_folded

    def spy(self, x, num_samples, scaled_mask=None):
        calls.append(scaled_mask is not None)
        return original(self, x, num_samples, scaled_mask=scaled_mask)

    monkeypatch.setattr(Dense, "forward_folded", spy)
    engine.sample(np.random.default_rng(0).normal(size=(4,) + shape), 4)
    assert any(calls), "fused kernel never engaged on an MCD->Dense suffix"


def test_fused_kernel_matches_materialised_mask():
    """Block-wise mask folding == materialised elementwise multiply, bitwise."""
    rng = np.random.default_rng(5)
    layer = Dense(7)
    layer.build((12,), rng)
    num_samples, n = 4, 3
    x = rng.normal(size=(num_samples * n, 12))
    mask = (rng.random(x.shape) < 0.75).astype(x.dtype) / 0.75
    fused = layer.forward_folded(x, num_samples, scaled_mask=mask)
    unfused = layer.forward_folded(x * mask, num_samples)
    np.testing.assert_array_equal(fused, unfused)


def test_folded_scaled_mask_consumes_stream_like_apply():
    """folded_scaled_mask draws the identical mask _apply would."""
    a = MCDropout(0.25, seed=9)
    b = MCDropout(0.25, seed=9)
    for layer in (a, b):
        layer.build((16,), np.random.default_rng(0))
    x = np.ones((5, 16))
    ctx_a, ctx_b = ForwardContext(), ForwardContext()
    scaled = a.folded_scaled_mask(x, ctx_a)
    applied = b._apply(x, ctx_b)
    np.testing.assert_array_equal(x * scaled, applied)
    # second draws stay aligned: the fused draw advanced the stream equally
    np.testing.assert_array_equal(
        a.folded_scaled_mask(x, ctx_a), b._apply(x, ctx_b)
    )


def test_zero_rate_mcd_before_dense_stays_identity():
    """rate=0 pairs skip fusion (no stream consumed) and stay bit-exact."""
    fused_net = Network([Flatten(), MCDropout(0.0), Dense(3)])
    fused_net.build((2, 3, 3), seed=0)
    looped_net = Network([Flatten(), MCDropout(0.0), Dense(3)])
    looped_net.build((2, 3, 3), seed=0)
    x = np.random.default_rng(2).normal(size=(4, 2, 3, 3))
    fused = NetworkEngine(fused_net, seed=1).sample(x, 3)
    NetworkEngine(looped_net, seed=1)
    looped = looped_mc_sample(looped_net, x, 3)
    np.testing.assert_array_equal(fused.sample_probs, looped.sample_probs)
