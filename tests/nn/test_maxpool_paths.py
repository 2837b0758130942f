"""MaxPool2D's running maximum against its column path.

Where the layer's probe (``pooling._max_is_a_scan``) says a window reduces
as a scan, ``MaxPool2D.forward`` folds the window positions with
``np.maximum`` and records where each maximum was in a ``uint8`` index;
otherwise it gathers columns and takes ``max`` / ``argmax``.  Patching the
probe to ``False`` forces the column path, which is the oracle here: the
forward's bytes and strides, the index against ``argmax``, and the
backward's bytes must all be the column path's.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.context import ForwardContext
from repro.nn.layers import MaxPool2D

from ..conftest import column_path, conv_output_layout, stepped_strides

_PALETTE = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])


def _with_specials(rng: np.random.Generator, shape) -> np.ndarray:
    """Half the elements from the palette, the rest standard normal."""
    special = rng.random(shape) < 0.5
    return np.where(special, rng.choice(_PALETTE, shape), rng.normal(size=shape))


def _crafted_ties(shape, layer: MaxPool2D, a: float, b: float) -> list[np.ndarray]:
    """For every window position: zeros of one sign with the other sign at
    that position (both polarities), and ``a`` everywhere with ``b`` there."""
    _, out_h, out_w = layer.output_shape
    rows = layer.stride * (out_h - 1) + 1
    cols = layer.stride * (out_w - 1) + 1
    crafted = []
    for i, j in itertools.product(range(layer.pool_size), repeat=2):
        for fill, odd_one in ((0.0, -0.0), (-0.0, 0.0), (a, b)):
            x = np.full(shape, fill)
            x[:, :, i : i + rows : layer.stride, j : j + cols : layer.stride] = odd_one
            crafted.append(x)
    return crafted


def _train_step(layer: MaxPool2D, x: np.ndarray, grad: np.ndarray):
    ctx = ForwardContext()
    out = layer.forward(x, training=True, ctx=ctx)
    _, where = ctx.saved(layer)
    # overlapping windows add +inf and -inf gradients: NaN on both paths
    with np.errstate(invalid="ignore"):
        return out, where, layer.backward(grad, ctx=ctx)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    c=st.integers(1, 9),
    pool_size=st.integers(1, 4),
    stride=st.integers(1, 3),
    extra_h=st.integers(0, 5),
    extra_w=st.integers(0, 5),
    conv_layout=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    tie=st.tuples(st.sampled_from(_PALETTE), st.sampled_from(_PALETTE)),
    seed=st.integers(0, 2**16),
)
# the window NumPy reduces lane-wise under AVX-512, and overlapping windows
@example(4, 3, 3, 2, 2, 1, False, np.float64, (1.0, 1.0), 0)
@example(3, 2, 2, 1, 3, 2, True, np.float32, (-0.0, 0.0), 1)
def test_running_maximum_is_the_column_path(
    n, c, pool_size, stride, extra_h, extra_w, conv_layout, dtype, tie, seed
):
    shape = (n, c, pool_size + extra_h, pool_size + extra_w)
    layer = MaxPool2D(pool_size, stride)
    layer.build(shape[1:], np.random.default_rng(0))
    out_shape = (n,) + layer.output_shape
    rng = np.random.default_rng(seed)
    inputs = [_with_specials(rng, shape)] + _crafted_ties(shape, layer, *tie)
    for x in inputs:
        x = x.astype(dtype)
        grad = _with_specials(rng, out_shape).astype(dtype)
        if conv_layout:
            x, grad = conv_output_layout(x), conv_output_layout(grad)

        out, index, grad_in = _train_step(layer, x, grad)
        with column_path():
            want, argmax, want_grad_in = _train_step(layer, x, grad)

        assert argmax.ndim == 2 and argmax.shape == (out.size // c, c)
        if layer.scans(dtype):
            assert index.dtype == np.uint8 and index.shape == out.shape
            index = index.transpose(0, 2, 3, 1).reshape(argmax.shape)
        else:
            assert index.ndim == 2  # the probe kept the column path
        np.testing.assert_array_equal(index, argmax)

        assert out.dtype == want.dtype and out.shape == want.shape
        assert stepped_strides(out) == stepped_strides(want), out.strides
        assert out.tobytes() == want.tobytes()

        assert grad_in.dtype == want_grad_in.dtype
        assert grad_in.shape == want_grad_in.shape == x.shape
        assert grad_in.tobytes() == want_grad_in.tobytes()


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
