"""Folded-vs-looped equivalence: the refactor must be bit-invisible.

These tests guard the acceptance criterion of the sample-folded engine:
for a fixed seed, folded flat-network sampling (``PrefixPlan`` prefix, then
``sample_suffix``, driven by :mod:`.folded_harness`) and
``MultiExitBayesNet.predict_mc`` (now folded) produce **bit-identical**
``sample_probs`` to the pre-refactor per-sample loops, which live on
verbatim in :mod:`.reference_loops`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MultiExitBayesNet,
    MultiExitConfig,
    single_exit_bayesnet,
)
from repro.inference import folded_forward_range, unfold_samples
from repro.nn.context import ForwardContext
from repro.nn.layers import Conv2D, MCDropout, ResidualBlock
from repro.nn.model import Network

from ..conftest import small_lenet_spec, small_resnet_spec, small_vgg_spec
from .folded_harness import fold_batch, folded_mc_sample, reseed_mcd
from .reference_loops import looped_mc_sample, looped_predict_mc

SPECS = {
    "lenet": (small_lenet_spec, (1, 12, 12)),
    "resnet": (small_resnet_spec, (3, 8, 8)),
    "vgg": (small_vgg_spec, (3, 8, 8)),
}


def _batch(shape, n=6, seed=0):
    return np.random.default_rng(seed).normal(size=(n,) + shape)


# --------------------------------------------------------------------------- #
# folded single-exit Bayes nets vs the legacy per-sample loop
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("arch", sorted(SPECS))
@pytest.mark.parametrize("num_mcd_layers", [1, 3])
def test_network_engine_bit_identical_to_legacy_loop(arch, num_mcd_layers):
    spec_fn, shape = SPECS[arch]
    x = _batch(shape)

    folded_net = single_exit_bayesnet(spec_fn(), num_mcd_layers=num_mcd_layers, seed=0)
    looped_net = single_exit_bayesnet(spec_fn(), num_mcd_layers=num_mcd_layers, seed=0)

    reseed_mcd(folded_net, 11)
    reseed_mcd(looped_net, 11)
    folded = folded_mc_sample(folded_net, x, 5, ForwardContext())
    looped = looped_mc_sample(looped_net, x, num_samples=5)

    np.testing.assert_array_equal(folded.sample_probs, looped.sample_probs)
    np.testing.assert_array_equal(folded.mean_probs, looped.mean_probs)


def test_network_engine_repeated_calls_stay_aligned_with_loop(lenet_spec_small):
    """The folded pass consumes exactly the legacy RNG stream per call."""
    x = _batch((1, 12, 12))
    net_a = single_exit_bayesnet(lenet_spec_small, num_mcd_layers=2, seed=0)
    net_b = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=2, seed=0)
    reseed_mcd(net_a, 3)
    reseed_mcd(net_b, 3)
    ctx = ForwardContext()
    for num_samples in (1, 4, 2):
        folded = folded_mc_sample(net_a, x, num_samples, ctx)
        looped = looped_mc_sample(net_b, x, num_samples)
        np.testing.assert_array_equal(folded.sample_probs, looped.sample_probs)


# --------------------------------------------------------------------------- #
# MultiExitBayesNet.predict_mc vs the legacy per-pass loop
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("arch", sorted(SPECS))
@pytest.mark.parametrize(
    "mcd_layers,conv_channels", [(1, 0), (2, 8)], ids=["mcd1", "mcd2+conv"]
)
def test_predict_mc_bit_identical_to_legacy_loop(arch, mcd_layers, conv_channels):
    spec_fn, shape = SPECS[arch]
    x = _batch(shape)
    config = dict(
        num_exits=2,
        mcd_layers_per_exit=mcd_layers,
        dropout_rate=0.25,
        default_mc_samples=5,
        exit_conv_channels=conv_channels,
        seed=0,
    )
    folded_model = MultiExitBayesNet(spec_fn(), MultiExitConfig(**config))
    looped_model = MultiExitBayesNet(spec_fn(), MultiExitConfig(**config))

    for num_samples in (5, 2):  # truncation below/above num_exits boundaries
        folded = folded_model.predict_mc(x, num_samples)
        looped = looped_predict_mc(looped_model, x, num_samples)
        np.testing.assert_array_equal(folded.sample_probs, looped.sample_probs)
        np.testing.assert_array_equal(folded.mean_probs, looped.mean_probs)


def test_exit_mc_probabilities_match_pass_accumulation(lenet_spec_small):
    """The folded per-exit MC mean equals the legacy accumulate-over-passes loop."""
    config = dict(
        num_exits=2,
        mcd_layers_per_exit=1,
        dropout_rate=0.25,
        default_mc_samples=4,
        seed=0,
    )
    folded_model = MultiExitBayesNet(lenet_spec_small, MultiExitConfig(**config))
    looped_model = MultiExitBayesNet(small_lenet_spec(), MultiExitConfig(**config))
    x = _batch((1, 12, 12))
    passes = 3

    folded = folded_model.engine.exit_mc_probabilities(x, passes)

    accumulated = None
    for _ in range(passes):
        exit_probs = looped_model.exit_probabilities(x, stochastic=True)
        if accumulated is None:
            accumulated = [p.copy() for p in exit_probs]
        else:
            for acc, p in zip(accumulated, exit_probs):
                acc += p
    legacy = [acc / passes for acc in accumulated]

    assert len(folded) == len(legacy) == 2
    for fold, ref in zip(folded, legacy):
        np.testing.assert_allclose(fold, ref, atol=1e-15)


def test_non_bayesian_predict_mc_matches_legacy(lenet_spec_small):
    """Deterministic heads: folding degenerates to replication, still identical."""
    config = dict(
        num_exits=2,
        mcd_layers_per_exit=0,
        dropout_rate=0.0,
        default_mc_samples=4,
        seed=0,
    )
    model_a = MultiExitBayesNet(lenet_spec_small, MultiExitConfig(**config))
    model_b = MultiExitBayesNet(small_lenet_spec(), MultiExitConfig(**config))
    x = _batch((1, 12, 12))
    folded = model_a.predict_mc(x, 4)
    looped = looped_predict_mc(model_b, x, 4)
    np.testing.assert_array_equal(folded.sample_probs, looped.sample_probs)


# --------------------------------------------------------------------------- #
# Conv2D / ResidualBlock in a folded range vs the per-slice loop
# --------------------------------------------------------------------------- #
def _folded_vs_sliced(layer, shape, n, num_samples, seed=1):
    """Compare ``folded_forward_range`` over a one-layer network against
    per-slice ``forward`` + concat."""
    net = Network([layer]).build(shape, seed=0)
    x = np.random.default_rng(seed).normal(size=(num_samples * n,) + shape)
    folded = folded_forward_range(net, x, num_samples, 0, 1)
    sliced = np.concatenate(
        [
            layer.forward(x[s * n : (s + 1) * n], training=False)
            for s in range(num_samples)
        ]
    )
    np.testing.assert_array_equal(folded, sliced)


@pytest.mark.parametrize("n", [1, 3], ids=["n1", "n3"])
@pytest.mark.parametrize(
    "kernel,stride,padding,use_bias",
    [(3, 1, "same", True), (3, 2, 1, False), (1, 1, 0, True)],
    ids=["k3same", "k3s2", "k1"],
)
def test_conv_flat_fold_bit_identical_to_slices(n, kernel, stride, padding, use_bias):
    """A folded convolution must match the per-slice loop *bitwise*.

    ``n == 1`` is the load-bearing case: there the legacy per-slice
    ``im2col`` hands BLAS an F-ordered view, so a fold that lowered the
    slices as one batch would change the result's bits — allclose would
    hide a regression that bit-equality catches.
    """
    shape = (3, 9, 9)
    layer = Conv2D(8, kernel, stride=stride, padding=padding, use_bias=use_bias)
    _folded_vs_sliced(layer, shape, n, num_samples=5)


@pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
@pytest.mark.parametrize(
    "stride,use_batchnorm",
    [(1, True), (2, True), (2, False)],
    ids=["identity", "proj", "proj-nobn"],
)
def test_residual_flat_fold_bit_identical_to_slices(n, stride, use_batchnorm):
    shape = (4, 8, 8)
    block = ResidualBlock(8, stride=stride, use_batchnorm=use_batchnorm)
    _folded_vs_sliced(block, shape, n, num_samples=4)


def test_conv_flat_fold_rejects_indivisible_batch():
    net = Network([Conv2D(4, 3)]).build((1, 6, 6), seed=0)
    with pytest.raises(ValueError, match="not divisible"):
        folded_forward_range(net, np.zeros((7, 1, 6, 6)), 3, 0, 1)


# --------------------------------------------------------------------------- #
# property test: folded masks are independent across the S tiles
# --------------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=0.7),
    num_samples=st.integers(min_value=2, max_value=6),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_folded_masks_independent_across_tiles(rate, num_samples, batch, seed):
    """One folded draw == S independent sequential draws, tile for tile.

    Running an MCDropout layer on the sample-folded batch must (a) give each
    of the S tiles its own mask — not a shared/broadcast one — and (b) draw
    those masks from the layer's RNG stream in exactly the order the legacy
    per-sample loop would, which is the precise sense in which the tiles are
    independent Bernoulli draws.
    """
    features = 64
    folded_layer = MCDropout(rate, seed=seed)
    looped_layer = MCDropout(rate, seed=seed)
    for layer in (folded_layer, looped_layer):
        layer.build((features,), np.random.default_rng(0))

    x = np.ones((batch, features))
    folded_out = folded_layer.forward(fold_batch(x, num_samples))
    tiles = unfold_samples(folded_out, num_samples)

    sequential = np.stack([looped_layer.forward(x) for _ in range(num_samples)])
    np.testing.assert_array_equal(tiles, sequential)

    # with 64 features and rate in [0.1, 0.7], two identical tiles would be a
    # ~(p^p·q^q)^64 coincidence — treat any collision as dependence
    for s in range(num_samples - 1):
        assert not np.array_equal(tiles[s], tiles[s + 1])


@settings(max_examples=10, deadline=None)
@given(num_samples=st.integers(min_value=2, max_value=5), seed=st.integers(0, 2**16))
def test_folded_conv_masks_independent_across_tiles(num_samples, seed):
    """Filter-wise 4-D masks: one (S·N, C, 1, 1) draw == S (N, C, 1, 1) draws."""
    shape = (3, 16, 2, 2)
    folded_layer = MCDropout(0.5, seed=seed)
    looped_layer = MCDropout(0.5, seed=seed)
    for layer in (folded_layer, looped_layer):
        layer.build(shape[1:], np.random.default_rng(0))

    x = np.ones(shape)
    tiles = unfold_samples(
        folded_layer.forward(fold_batch(x, num_samples)), num_samples
    )
    sequential = np.stack([looped_layer.forward(x) for _ in range(num_samples)])
    np.testing.assert_array_equal(tiles, sequential)
