"""Pooling layers: max and global average pooling."""

from __future__ import annotations

import itertools
from functools import cache

import numpy as np

from ..context import ForwardContext
from ..tensor import conv_output_size
from .base import Layer

__all__ = ["MaxPool2D", "GlobalAvgPool2D"]


def _memory_axes(n: int) -> tuple[int, ...]:
    """The NCHW axes in the order :meth:`MaxPool2D._allocate` lays them out
    in memory: NCHW for ``N == 1``, NHWC otherwise."""
    return (0, 1, 2, 3) if n == 1 else (0, 2, 3, 1)


@cache
def _window_offsets(x_shape: tuple, pool_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat offsets into a gradient image of ``x_shape`` in its memory order.

    ``corners`` holds each output's window corner, in the output's memory
    order (the index's); ``steps[k]`` is window position ``k``'s distance
    from its corner, ``k = ky·pool_size + kx``.  Cached per input shape and
    read-only, since every backward of the same layer shares them; a
    training run sees one or two batch sizes per layer.
    """
    n, c, h, w = x_shape
    if n == 1:
        step_c, step_y, step_x = h * w, w, 1
    else:
        step_c, step_y, step_x = 1, w * c, c
    step_n = c * h * w
    corners = (
        np.arange(n)[:, None, None, None] * step_n
        + np.arange(c)[None, :, None, None] * step_c
        + np.arange(h // pool_size)[None, None, :, None] * (pool_size * step_y)
        + np.arange(w // pool_size)[None, None, None, :] * (pool_size * step_x)
    )
    corners = np.ascontiguousarray(corners.transpose(_memory_axes(n)))
    positions = np.arange(pool_size)
    steps = (positions[:, None] * step_y + positions[None, :] * step_x).ravel()
    corners.flags.writeable = steps.flags.writeable = False
    return corners, steps


class MaxPool2D(Layer):
    """Max pooling over tiling ``pool_size × pool_size`` windows.

    The stride is ``pool_size``, as in the generated HLS kernel; rows and
    columns past the last whole window are dropped.  The forward is
    :meth:`running_max`: ``np.maximum`` folded over the ``pool_size²``
    window positions, each a strided view of the input, so a
    ``-0.0``/``+0.0`` tie goes to the later position.  The output is
    NCHW-contiguous for ``N == 1`` and the NCHW view of NHWC memory
    otherwise.  A ``uint8`` index of each maximum's position drives the
    backward, :meth:`_index_backward`.  With a NaN in a window the index
    is outside that contract.
    """

    def __init__(self, pool_size: int = 2, *, name: str | None = None) -> None:
        super().__init__(name=name)
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = int(pool_size)

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"pooling expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.pool_size, 0)
        out_w = conv_output_size(w, self.pool_size, self.pool_size, 0)
        return (c, out_h, out_w)

    def describe(self) -> dict:
        info = super().describe()
        info["pool_size"] = self.pool_size
        return info

    def _positions(self, x: np.ndarray):
        """The window positions in ``(ky, kx)`` order, each a strided view of ``x``."""
        size = self.pool_size
        _, out_h, out_w = self.output_shape
        for i, j in itertools.product(range(size), repeat=2):
            yield x[:, :, i : size * out_h : size, j : size * out_w : size]

    @staticmethod
    def _allocate(shape: tuple, dtype, fill=np.empty) -> np.ndarray:
        """An NCHW-shaped array in the pool's output memory order:
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
        index = self._allocate((x.shape[0],) + self.output_shape, np.uint8)
        out = self.running_max(x, index)
        self._ctx(ctx).save(self, (x.shape, index))
        return out

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        x_shape, index = self._ctx(ctx).saved(self)
        return self._index_backward(grad_output, x_shape, index)

    def _index_backward(
        self, grad_output: np.ndarray, x_shape: tuple, index: np.ndarray
    ) -> np.ndarray:
        """The gradient scattered once onto each output's recorded maximum.

        Output ``o`` whose index reads ``k`` adds its gradient at its window
        corner plus position ``k``'s step, onto a zero image in the index's
        memory order (the order the ReLU mask and the convolution's NHWC
        rows below read fastest).  The windows tile, so each pixel gets at
        most one addition, onto ``+0.0`` (``-0.0`` becomes ``+0.0``).
        """
        axes = _memory_axes(x_shape[0])
        corners, steps = _window_offsets(x_shape, self.pool_size)
        offsets = steps.take(index.transpose(axes))
        offsets += corners
        img = self._allocate(x_shape, grad_output.dtype, np.zeros)
        np.add.at(
            img.transpose(axes).reshape(-1),
            offsets.reshape(-1),
            grad_output.transpose(axes).reshape(-1),
        )
        return img


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
