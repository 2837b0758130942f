"""The stochastic suffix's one path: bit-exactness against the legacy loop.

:func:`repro.inference.folding.sample_suffix` leaves the clone step to the
suffix's first MC-dropout layer: :meth:`~repro.nn.layers.dropout.MCDropout.fold`
multiplies the ``(N, …)`` prefix into that layer's S masks, so the unmasked
``(S·N, …)`` tile is never built.  These tests pin the acceptance criterion:
for every suffix composition (Dense-only, Conv2D-interleaved, ResidualBlock)
and S in {1, 4, 10}, the folded sampler is **bit-identical** to the legacy
one-pass-per-sample loop — and ``fold`` is bit-identical, memory order and
RNG stream included, to masking the tiled batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import single_exit_bayesnet
from repro.inference.folding import sample_suffix
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
from .folded_harness import fold_batch, folded_mc_sample, reseed_mcd
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
    # filter-wise MCD on 4-D features folds the prefix ahead of a Conv2D,
    # then an element-wise MCD on the folded batch feeds the Dense
    return [
        Conv2D(6, 3, padding="same", name="c1"),
        ReLU(),
        MCDropout(0.25, name="mcd0"),
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

    reseed_mcd(fused_net, 7)
    reseed_mcd(looped_net, 7)
    fused = folded_mc_sample(fused_net, x, num_samples, ForwardContext())
    looped = looped_mc_sample(looped_net, x, num_samples)

    np.testing.assert_array_equal(fused.sample_probs, looped.sample_probs)
    np.testing.assert_array_equal(fused.mean_probs, looped.mean_probs)


@pytest.mark.parametrize("num_samples", [1, 4, 10])
def test_fused_suffix_on_full_architecture(num_samples):
    """End-to-end over a real backbone: MCD layers deep enough to hit convs."""
    fused_net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=3, seed=0)
    looped_net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=3, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 1, 12, 12))

    reseed_mcd(fused_net, 2)
    reseed_mcd(looped_net, 2)
    fused = folded_mc_sample(fused_net, x, num_samples, ForwardContext())
    looped = looped_mc_sample(looped_net, x, num_samples)
    np.testing.assert_array_equal(fused.sample_probs, looped.sample_probs)


@pytest.mark.parametrize("arch", sorted(SUFFIXES))
def test_sample_suffix_never_tiles_the_prefix(arch, monkeypatch):
    """With the split layer's rate > 0 the fold is the masked product alone."""
    net, _, shape = _twin_networks(arch)
    assert net.layers[net.first_stochastic_index()].rate > 0
    reseed_mcd(net, 0)
    tiled = []

    def spy(original):
        def recording(*args, **kwargs):
            tiled.append(original.__name__)
            return original(*args, **kwargs)

        return recording

    monkeypatch.setattr(np, "tile", spy(np.tile))
    x = np.random.default_rng(0).normal(size=(4,) + shape)
    folded_mc_sample(net, x, 4, ForwardContext())
    assert tiled == []


def test_sample_suffix_rejects_a_split_that_is_not_mc_dropout():
    net, _, shape = _twin_networks("dense")
    with pytest.raises(TypeError, match="not an MCDropout"):
        sample_suffix(net, np.zeros((2,) + shape), 0, 3, ForwardContext())


def test_fold_matches_apply_on_the_tiled_batch():
    """fold(x, S) has the bytes of forward(fold_batch(x, S))."""
    a, b = MCDropout(0.25, seed=9), MCDropout(0.25, seed=9)
    x = np.random.default_rng(5).normal(size=(3, 12))
    folded = a.fold(x, 4, ForwardContext())
    applied = b.forward(fold_batch(x, 4), ctx=ForwardContext())
    assert folded.shape == applied.shape == (12, 12)
    assert folded.tobytes() == applied.tobytes()


def test_fold_consumes_stream_like_apply():
    """fold leaves the RNG stream where forward on the tiled batch leaves it."""
    a = MCDropout(0.25, seed=9)
    b = MCDropout(0.25, seed=9)
    x = np.random.default_rng(4).normal(size=(5, 16))
    ctx_a, ctx_b = ForwardContext(), ForwardContext()
    np.testing.assert_array_equal(
        a.fold(x, 3, ctx_a), b.forward(fold_batch(x, 3), ctx=ctx_b)
    )
    # second draws stay aligned: the fold advanced the stream equally
    np.testing.assert_array_equal(a.fold(x, 1, ctx_a), b.forward(x, ctx=ctx_b))
    assert ctx_a.rng(a).random() == ctx_b.rng(b).random()


def _prefix(data, rank):
    """A random float64 prefix: C-contiguous, or another layout of the same values."""
    n = data.draw(st.integers(1, 5), label="N")
    if rank == 2:
        shape = (n, data.draw(st.integers(1, 6), label="F"))
    else:
        shape = (n,) + tuple(data.draw(st.integers(1, 4), label=a) for a in "CHW")
    x = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")).normal(
        size=shape
    )
    if not data.draw(st.booleans(), label="other layout"):
        return x
    if rank == 2:
        return np.asfortranarray(x)
    # the plan's NCHW view of NHWC memory
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _layout(a):
    """The strides that matter: those of the axes longer than one."""
    return [stride for size, stride in zip(a.shape, a.strides) if size > 1]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    data=st.data(),
    rank=st.sampled_from([2, 4]),
    dtype=st.sampled_from([np.float64, np.float32]),
    rate=st.sampled_from([0.0, 0.25, 0.5]),
    num_samples=st.integers(1, 4),
)
def test_fold_is_apply_on_the_tile_in_bytes_layout_and_stream(
    data, rank, dtype, rate, num_samples
):
    x = _prefix(data, rank).astype(dtype, order="K")
    a, b = (MCDropout(rate, seed=3) for _ in range(2))
    ctx_a, ctx_b = ForwardContext(), ForwardContext()
    folded = a.fold(x, num_samples, ctx_a)
    applied = b.forward(fold_batch(x, num_samples), ctx=ctx_b)

    assert (folded.shape, folded.dtype) == (applied.shape, applied.dtype)
    assert folded.tobytes() == applied.tobytes()
    # the same memory order: a tile is C-contiguous, and at S = 1 the layer
    # keeps its input's layout, as forward does
    assert _layout(folded) == _layout(applied)
    assert folded.flags.c_contiguous or (num_samples == 1 and not x.flags.c_contiguous)
    assert ctx_a.rng(a).random() == ctx_b.rng(b).random()
    if rank == 4:
        # a later global pool sums in stride order, so layout would show here
        pool = GlobalAvgPool2D()
        pooled = pool.forward(folded, ctx=ctx_a)
        assert pooled.tobytes() == pool.forward(applied, ctx=ctx_b).tobytes()


def test_zero_rate_mcd_before_dense_stays_identity():
    """A rate-0 split layer folds by tiling (no stream consumed), bit-exact."""
    fused_net = Network([Flatten(), MCDropout(0.0), Dense(3)])
    fused_net.build((2, 3, 3), seed=0)
    looped_net = Network([Flatten(), MCDropout(0.0), Dense(3)])
    looped_net.build((2, 3, 3), seed=0)
    x = np.random.default_rng(2).normal(size=(4, 2, 3, 3))
    reseed_mcd(fused_net, 1)
    reseed_mcd(looped_net, 1)
    fused = folded_mc_sample(fused_net, x, 3, ForwardContext())
    looped = looped_mc_sample(looped_net, x, 3)
    np.testing.assert_array_equal(fused.sample_probs, looped.sample_probs)
