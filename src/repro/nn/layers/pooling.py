"""Pooling layers: max, average, and global average pooling."""

from __future__ import annotations

import itertools
from functools import cache

import numpy as np

from ..context import ForwardContext
from ..tensor import col2im, conv_output_size, im2col
from .base import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


@cache
def _max_is_a_scan(window: int, dtype: str) -> bool:
    """Whether ``max`` over ``window`` contiguous elements is a running maximum.

    Checked on every way a window can tie (each element below the maximum,
    ``-0.0`` or ``+0.0``), once per window length and dtype: NumPy scans a
    short window element by element, but reduces one that fills a vector
    register (nine float64 elements under AVX-512) lane-wise, and then a
    ``-0.0``/``+0.0`` tie resolves in lane order instead.
    """
    if window > 9:
        return False
    ties = itertools.product((-1.0, -0.0, 0.0), repeat=window)
    cols = np.array(list(ties), dtype=dtype)
    scan = cols[:, 0].copy()
    for position in range(1, window):
        np.maximum(scan, cols[:, position], out=scan)
    return cols.max(axis=1).tobytes() == scan.tobytes()


class _Pool2D(Layer):
    """Shared machinery for spatial pooling over NCHW inputs."""

    def __init__(
        self, pool_size: int = 2, stride: int | None = None, name: str | None = None
    ) -> None:
        super().__init__(name=name)
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else int(pool_size)

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"pooling expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        return (c, out_h, out_w)

    def _to_cols(self, x: np.ndarray) -> np.ndarray:
        n, c, _, _ = x.shape
        _, out_h, out_w = self.output_shape
        cols = im2col(x, self.pool_size, self.pool_size, self.stride, 0)
        return cols.reshape(n * out_h * out_w, c, self.pool_size * self.pool_size)

    def describe(self) -> dict:
        info = super().describe()
        info.update({"pool_size": self.pool_size, "stride": self.stride})
        return info


class MaxPool2D(_Pool2D):
    """Max pooling over non-overlapping (or strided) windows.

    Two paths with one result.  Where :meth:`scans` holds, the output is a
    running maximum over the ``pool_size²`` window positions, each a strided
    view of the input (:meth:`running_max`): no column matrix.  Otherwise —
    a window NumPy reduces lane-wise, or one longer than nine elements — the
    input is gathered into columns and reduced with ``max``/``argmax``.

    The running maximum reproduces the column path's bits and layout: the
    output is NCHW-contiguous for ``N == 1`` and the NCHW view of NHWC
    memory otherwise, which is what ``cols.max(axis=2)`` makes of
    :func:`~repro.nn.tensor.im2col`'s column-major single-example columns
    and C-contiguous batch columns.  Its ``uint8`` index (which window
    position held the maximum) is the column path's ``argmax``, and the
    backward scatters through it with ``col2im``'s additions on ``col2im``'s
    operands.  With a NaN in a window the index is outside that contract.
    """

    def scans(self, dtype: np.dtype) -> bool:
        """Whether :meth:`running_max` has the column path's bits for ``dtype``."""
        return _max_is_a_scan(self.pool_size * self.pool_size, np.dtype(dtype).char)

    def _positions(self, x: np.ndarray):
        """The window positions in ``(ky, kx)`` order, each a strided view of ``x``."""
        size, stride = self.pool_size, self.stride
        _, out_h, out_w = self.output_shape
        span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
        for i, j in itertools.product(range(size), repeat=2):
            yield x[:, :, i : i + span_h : stride, j : j + span_w : stride]

    @staticmethod
    def _allocate(shape: tuple, dtype, fill=np.empty) -> np.ndarray:
        """An NCHW-shaped array in the column path's output memory order:
        NCHW-contiguous for ``N == 1``, the NCHW view of NHWC memory else."""
        n, c, h, w = shape
        if n == 1:
            return fill(shape, dtype=dtype)
        return fill((n, h, w, c), dtype=dtype).transpose(0, 3, 1, 2)

    def running_max(self, x: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """The pooled ``x`` as ``np.maximum`` folded over the window positions.

        With ``index`` (an output-shaped ``uint8`` array), record in it the
        position of each maximum: a position is written wherever its view
        is strictly greater than the maximum so far, which is ``argmax``'s
        first-occurrence rule (``-0.0`` and ``+0.0`` compare equal).
        Without one the fold does no compare work.
        """
        positions = self._positions(x)
        out = self._allocate((x.shape[0],) + self.output_shape, x.dtype)
        np.copyto(out, next(positions))
        if index is not None:
            index[...] = 0
            winner = np.empty_like(index)
        for k, position in enumerate(positions, 1):
            if index is not None:
                # k exceeds every position recorded so far, so the maximum
                # of index and k·[view > out] writes k exactly where the view
                # wins (a masked copyto is several times slower)
                np.greater(position, out, out=winner)
                np.multiply(winner, k, out=winner)
                np.maximum(index, winner, out=index)
            np.maximum(out, position, out=out)
        return out

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        n, c, _, _ = x.shape
        if self.scans(x.dtype):
            index = self._allocate((n,) + self.output_shape, np.uint8)
            out = self.running_max(x, index)
            self._ctx(ctx).save(self, (x.shape, index))
            return out
        _, out_h, out_w = self.output_shape
        cols = self._to_cols(x)
        argmax = cols.argmax(axis=2)
        out = cols.max(axis=2)
        self._ctx(ctx).save(self, (x.shape, argmax))
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        x_shape, argmax = self._ctx(ctx).saved(self)
        if argmax.ndim == 4:  # the running maximum's output-shaped index
            return self._index_backward(grad_output, x_shape, argmax)
        n, c, _, _ = x_shape
        _, out_h, out_w = self.output_shape
        window = self.pool_size * self.pool_size

        grad_cols = np.zeros((n * out_h * out_w, c, window), dtype=grad_output.dtype)
        flat_grad = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c)
        rows = np.arange(grad_cols.shape[0])[:, None]
        channels = np.arange(c)[None, :]
        grad_cols[rows, channels, argmax] = flat_grad

        grad_cols = grad_cols.reshape(n * out_h * out_w, c * window)
        return col2im(
            grad_cols, x_shape, self.pool_size, self.pool_size, self.stride, 0
        )

    def _index_backward(
        self, grad_output: np.ndarray, x_shape: tuple, index: np.ndarray
    ) -> np.ndarray:
        """``col2im`` of the scattered gradient, one window position at a time.

        Position ``k`` adds ``grad_output`` where it held the maximum and
        ``+0.0`` elsewhere into its strided view of a zero image — the
        column path's ``col2im`` operands in its order, so every stride
        (overlapping windows included) gives its bits.  The image is in the
        index's memory order rather than ``col2im``'s NCHW: the ReLU below
        multiplies it by a mask in that order and the convolution below
        reshapes it to NHWC rows, both cheaper on aligned memory.
        """
        img = self._allocate(x_shape, grad_output.dtype, np.zeros)
        for k, position in enumerate(self._positions(img)):
            position += np.where(index == k, grad_output, 0)
        return img


class AvgPool2D(_Pool2D):
    """Average pooling over spatial windows."""

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        n, c, _, _ = x.shape
        _, out_h, out_w = self.output_shape
        cols = self._to_cols(x)
        out = cols.mean(axis=2)
        self._ctx(ctx).save(self, x.shape)
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        x_shape = self._ctx(ctx).saved(self)
        n, c, _, _ = x_shape
        _, out_h, out_w = self.output_shape
        window = self.pool_size * self.pool_size

        flat_grad = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c)
        grad_cols = np.repeat(flat_grad[:, :, None] / window, window, axis=2)
        grad_cols = grad_cols.reshape(n * out_h * out_w, c * window)
        return col2im(
            grad_cols, x_shape, self.pool_size, self.pool_size, self.stride, 0
        )


class GlobalAvgPool2D(Layer):
    """Global average pooling; collapses (C, H, W) to (C,)."""

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(
                f"GlobalAvgPool2D expects (C, H, W) input, got {input_shape}"
            )
        return (input_shape[0],)

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        self._ctx(ctx).save(self, x.shape)
        return x.mean(axis=(2, 3))

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        n, c, h, w = self._ctx(ctx).saved(self)
        grad = grad_output[:, :, None, None] / (h * w)
        return np.broadcast_to(grad, (n, c, h, w)).copy()
