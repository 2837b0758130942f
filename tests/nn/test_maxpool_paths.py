"""MaxPool2D's running maximum against the column oracle.

``MaxPool2D.forward`` folds the window positions with ``np.maximum`` and
records where each maximum was in a ``uint8`` index; the backward scatters
each output's gradient through that index once.  The column oracle
(:mod:`tests.nn.column_pool`: ``im2col``, ``max`` / ``argmax``, ``col2im``)
checks the index against ``argmax``, the backward's bytes, the forward's
strides, and the forward's bytes wherever its ``max`` scans (elsewhere its
values).  The scatter's second oracle is the loop it replaced,
:func:`looped_index_backward`: one round per window position.  It must
give the gradient image's bytes *and* memory order, since
``BatchNorm.backward`` below a VGG pool sums in that order.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.context import ForwardContext
from repro.nn.layers import MaxPool2D

from ..conftest import conv_output_layout, stepped_strides
from .column_pool import bit_exact, column_path

_PALETTE = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])


def _with_specials(rng: np.random.Generator, shape) -> np.ndarray:
    """Half the elements from the palette, the rest standard normal."""
    special = rng.random(shape) < 0.5
    return np.where(special, rng.choice(_PALETTE, shape), rng.normal(size=shape))


def _crafted_ties(shape, layer: MaxPool2D, a: float, b: float) -> list[np.ndarray]:
    """For every window position: zeros of one sign with the other sign at
    that position (both polarities), and ``a`` everywhere with ``b`` there."""
    size = layer.pool_size
    crafted = []
    for i, j in itertools.product(range(size), repeat=2):
        for fill, odd_one in ((0.0, -0.0), (-0.0, 0.0), (a, b)):
            x = np.full(shape, fill)
            x[:, :, i::size, j::size] = odd_one
            crafted.append(x)
    return crafted


def looped_index_backward(
    layer: MaxPool2D, grad_output: np.ndarray, x_shape: tuple, index: np.ndarray
) -> np.ndarray:
    """The index path's historical backward: for each window position ``k``
    in ``(ky, kx)`` order, add ``grad_output`` where the index says ``k``
    and ``+0.0`` elsewhere into that position's strided view of a zero
    image in the index's memory order."""
    img = layer._allocate(x_shape, grad_output.dtype, np.zeros)
    for k, position in enumerate(layer._positions(img)):
        position += np.where(index == k, grad_output, 0)
    return img


def _train_step(layer: MaxPool2D, x: np.ndarray, grad: np.ndarray):
    ctx = ForwardContext()
    out = layer.forward(x, training=True, ctx=ctx)
    _, where = ctx.saved(layer)
    return out, where, layer.backward(grad, ctx=ctx)


#: layer geometry, input layout and dtype, a tie pair and the data seed
_DOMAIN = dict(
    n=st.integers(1, 6),
    c=st.integers(1, 9),
    pool_size=st.integers(1, 4),
    extra_h=st.integers(0, 5),
    extra_w=st.integers(0, 5),
    conv_layout=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    tie=st.tuples(st.sampled_from(_PALETTE), st.sampled_from(_PALETTE)),
    seed=st.integers(0, 2**16),
)


def _cases(n, c, pool_size, extra_h, extra_w, conv_layout, dtype, tie, seed):
    """A built layer and its (input, output gradient) pairs: one with the
    palette's specials, then every crafted tie."""
    shape = (n, c, pool_size + extra_h, pool_size + extra_w)
    layer = MaxPool2D(pool_size)
    layer.build(shape[1:], np.random.default_rng(0))
    out_shape = (n,) + layer.output_shape
    rng = np.random.default_rng(seed)
    pairs = []
    for x in [_with_specials(rng, shape)] + _crafted_ties(shape, layer, *tie):
        x = x.astype(dtype)
        grad = _with_specials(rng, out_shape).astype(dtype)
        if conv_layout:
            x, grad = conv_output_layout(x), conv_output_layout(grad)
        pairs.append((x, grad))
    return layer, pairs


@settings(max_examples=150, deadline=None)
@given(**_DOMAIN)
# a window NumPy reduces lane-wise under AVX-512, and one too long to scan
@example(4, 3, 3, 2, 1, False, np.float64, (1.0, 1.0), 0)
@example(3, 2, 4, 1, 3, True, np.float32, (-0.0, 0.0), 1)
def test_running_maximum_is_the_column_path(
    n, c, pool_size, extra_h, extra_w, conv_layout, dtype, tie, seed
):
    layer, pairs = _cases(
        n, c, pool_size, extra_h, extra_w, conv_layout, dtype, tie, seed
    )
    for x, grad in pairs:
        out, index, grad_in = _train_step(layer, x, grad)
        with column_path():
            want, argmax, want_grad_in = _train_step(layer, x, grad)

        assert index.dtype == np.uint8 and index.shape == out.shape
        assert argmax.shape == (out.size // c, c)
        np.testing.assert_array_equal(
            index.transpose(0, 2, 3, 1).reshape(argmax.shape), argmax
        )

        assert out.dtype == want.dtype and out.shape == want.shape
        assert stepped_strides(out) == stepped_strides(want), out.strides
        if bit_exact(layer, dtype):
            assert out.tobytes() == want.tobytes()
        else:
            np.testing.assert_array_equal(out, want)

        assert grad_in.dtype == want_grad_in.dtype
        assert grad_in.shape == want_grad_in.shape == x.shape
        assert grad_in.tobytes() == want_grad_in.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(**_DOMAIN)
@example(1, 3, 2, 3, 1, False, np.float32, (-0.0, 0.0), 0)
@example(5, 4, 2, 1, 0, True, np.float64, (np.inf, -np.inf), 2)
def test_the_scatter_is_the_per_position_loop(
    n, c, pool_size, extra_h, extra_w, conv_layout, dtype, tie, seed
):
    """Bytes and memory order of the gradient image, over every index the
    running maximum records."""
    layer, pairs = _cases(
        n, c, pool_size, extra_h, extra_w, conv_layout, dtype, tie, seed
    )
    for x, grad in pairs:
        index = layer._allocate((n,) + layer.output_shape, np.uint8)
        layer.running_max(x, index)
        got = layer._index_backward(grad, x.shape, index)
        want = looped_index_backward(layer, grad, x.shape, index)
        assert got.dtype == want.dtype and got.shape == want.shape == x.shape
        assert stepped_strides(got) == stepped_strides(want), got.strides
        assert got.tobytes() == want.tobytes()


def test_the_fold_without_an_index_has_the_training_forwards_bits():
    """The prefix plan's call (no index, no compare work) returns what the
    training forward returns."""
    layer = MaxPool2D(2)
    layer.build((3, 7, 6), np.random.default_rng(0))
    x = _with_specials(np.random.default_rng(1), (5, 3, 7, 6))
    ctx = ForwardContext()
    trained = layer.forward(x, training=True, ctx=ctx)
    folded = layer.running_max(x)
    assert folded.strides == trained.strides
    assert folded.tobytes() == trained.tobytes()
    assert not np.shares_memory(folded, trained)
