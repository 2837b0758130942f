"""The max-pool oracle: ``MaxPool2D`` through a column matrix.

Before the layer folded its window positions with ``np.maximum`` it pooled
through ``im2col``: an ``(N·oh·ow, C, pool²)`` column matrix reduced with
``max`` and ``argmax``, and a backward that scatters each gradient into a
zero column matrix at its ``argmax`` and sums it back with ``col2im``.
:func:`column_path` binds ``MaxPool2D.forward`` / ``backward`` to that, for
the tests and benchmarks that compare the layer and the prefix plan's pool
step against it, or time them against it.

The index, the layout and the backward are exact oracles everywhere.  The
output is one only where :func:`max_is_a_scan` holds: NumPy's ``max``
scans a short window element by element and, like the running maximum,
gives a ``-0.0``/``+0.0`` tie to the later position, but it reduces a
window that fills a vector register (nine float64 elements under AVX-512)
lane-wise, and ties then go in lane order.  Elsewhere the two outputs are
equal as numbers, not necessarily as bits.
"""

from __future__ import annotations

import contextlib
import itertools
from functools import cache
from unittest import mock

import numpy as np

from repro.nn.context import ForwardContext
from repro.nn.layers import MaxPool2D
from repro.nn.tensor import col2im, im2col


@cache
def max_is_a_scan(window: int, dtype: str) -> bool:
    """Whether ``max`` over ``window`` contiguous elements is a running maximum.

    Checked on every way a window can tie (each element below the maximum,
    ``-0.0`` or ``+0.0``), once per window length and dtype character.
    """
    if window > 9:
        return False
    ties = itertools.product((-1.0, -0.0, 0.0), repeat=window)
    cols = np.array(list(ties), dtype=dtype)
    scan = cols[:, 0].copy()
    for position in range(1, window):
        np.maximum(scan, cols[:, position], out=scan)
    return cols.max(axis=1).tobytes() == scan.tobytes()


def bit_exact(layer: MaxPool2D, dtype) -> bool:
    """Whether the oracle's output has the layer's bits for ``dtype``."""
    return max_is_a_scan(layer.pool_size**2, np.dtype(dtype).char)


def column_forward(
    layer: MaxPool2D,
    x: np.ndarray,
    training: bool = False,
    ctx: ForwardContext | None = None,
) -> np.ndarray:
    """``im2col``, then ``max`` and ``argmax`` over each window's row."""
    n, c, _, _ = x.shape
    size = layer.pool_size
    _, out_h, out_w = layer.output_shape
    cols = im2col(x, size, size, size, 0).reshape(n * out_h * out_w, c, size * size)
    argmax = cols.argmax(axis=2)
    out = cols.max(axis=2)
    layer._ctx(ctx).save(layer, (x.shape, argmax))
    return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)


def column_backward(
    layer: MaxPool2D, grad_output: np.ndarray, ctx: ForwardContext | None = None
) -> np.ndarray:
    """Each gradient into a zero column matrix at its ``argmax``, then ``col2im``."""
    x_shape, argmax = layer._ctx(ctx).saved(layer)
    n, c, _, _ = x_shape
    size = layer.pool_size
    _, out_h, out_w = layer.output_shape
    rows = n * out_h * out_w
    grad_cols = np.zeros((rows, c, size * size), dtype=grad_output.dtype)
    flat_grad = grad_output.transpose(0, 2, 3, 1).reshape(rows, c)
    grad_cols[np.arange(rows)[:, None], np.arange(c)[None, :], argmax] = flat_grad
    grad_cols = grad_cols.reshape(rows, c * size * size)
    return col2im(grad_cols, x_shape, size, size, size, 0)


@contextlib.contextmanager
def column_path():
    """Every ``MaxPool2D`` forward and backward through the column oracle."""
    with (
        mock.patch.object(MaxPool2D, "forward", column_forward),
        mock.patch.object(MaxPool2D, "backward", column_backward),
    ):
        yield
