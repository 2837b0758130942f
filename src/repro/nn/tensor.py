"""Tensor manipulation helpers for the NumPy neural-network substrate.

All convolution layers in :mod:`repro.nn` use the ``NCHW`` layout
(batch, channels, height, width).  The helpers in this module implement the
im2col / col2im lowering used by :class:`repro.nn.layers.conv.Conv2D` so that
convolutions reduce to a single matrix multiplication, which keeps the pure
NumPy implementation fast enough for the scaled-down experiments in this
repository.

There is one gather.  :func:`im2col` (and its patch-major form
:func:`im2col_patches`) serves training, pooling, the sample-folded suffix
and the planned inference prefix alike: the input is written into a
zero-bordered image once and a single ``np.copyto`` from a strided window
view puts every column in its final place.  Callers that lower the same
layers batch after batch pass a :class:`ColumnArena` and get the columns
as a view of reusable scratch; everyone else gets a fresh array.  The
memory order of the result (C-contiguous, except the column-major view for
a single example) is part of the contract — see :func:`im2col`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "pad_input",
    "conv_output_size",
    "ColumnArena",
    "im2col",
    "im2col_patches",
    "col2im",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the spatial output size of a convolution / pooling window.

    Parameters
    ----------
    size:
        Input spatial size (height or width).
    kernel:
        Kernel size along the same dimension.
    stride:
        Stride along the same dimension.
    padding:
        Zero padding applied symmetrically to both sides.
    """
    if size <= 0:
        raise ValueError(f"input size must be positive, got {size}")
    if kernel <= 0 or stride <= 0:
        raise ValueError("kernel and stride must be positive")
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of an NCHW tensor."""
    if padding == 0:
        return x
    if padding < 0:
        raise ValueError("padding must be non-negative")
    return np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


class ColumnArena:
    """Reusable scratch for :func:`im2col`: one column buffer, bordered images.

    A caller that lowers the same convolutions batch after batch (the
    inference prefix plan, :mod:`repro.inference.plan`) passes one arena to
    every gather instead of letting each allocate.  It holds

    * **one** flat column buffer, grown to the largest column matrix any
      gather has asked for and carved per call into a view of the caller's
      dtype — so a float32 batch never turns the buffer a later float64
      batch reads into float32 storage; and
    * one zero-bordered NHWC image per distinct ``(H + 2p, W + 2p, C)``
      geometry, padding ``p`` and dtype, grown to the largest batch seen.
      Only the interior is ever written, so the border is zeroed once —
      which is why ``p`` is part of the key: a 6×6 input at ``p = 1`` and
      a 4×4 input at ``p = 2`` both pad to 8×8, and the second would read
      the first one's interior as its border.

    Both are bounded by the layer list and the largest batch: nothing here
    grows with the number of calls.  A column matrix returned by
    ``im2col(..., arena=...)`` is a *view of the arena*, valid until the
    next gather on it; an arena is single-caller state like a
    :class:`~repro.nn.context.ForwardContext`.
    """

    def __init__(self) -> None:
        self._columns = np.empty(0, dtype=np.float64)
        self._bordered: dict[tuple, np.ndarray] = {}

    def columns(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """An uninitialised ``shape``/``dtype`` view of the column buffer."""
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > self._columns.nbytes:
            self._columns = np.empty(-(-nbytes // 8), dtype=np.float64)
        return self._columns.view(np.uint8)[:nbytes].view(dtype).reshape(shape)

    def bordered(
        self, shape: tuple[int, ...], padding: int, dtype: np.dtype
    ) -> np.ndarray:
        """A ``(N, H', W', C)`` image whose ``padding``-wide border is zero."""
        key = (shape[1:], padding, dtype.str)
        image = self._bordered.get(key)
        if image is None or image.shape[0] < shape[0]:
            image = self._bordered[key] = np.zeros(shape, dtype=dtype)
        return image[: shape[0]]


def _windows(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    arena: ColumnArena | None,
) -> np.ndarray:
    """Read-only ``(N, C, kh, kw, oh, ow)`` window view over zero-padded ``x``.

    No element is copied except ``x`` itself into the interior of a
    zero-bordered NHWC image (skipped when ``padding == 0``): the six axes
    are strides over that image, so a single ``np.copyto`` from any
    transposition of the view *is* the gather.
    """
    if padding < 0:
        raise ValueError("padding must be non-negative")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if padding:
        shape = (n, h + 2 * padding, w + 2 * padding, c)
        if arena is None:
            image = np.zeros(shape, dtype=x.dtype)
        else:
            image = arena.bordered(shape, padding, x.dtype)
        image[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
        s_n, s_h, s_w, s_c = image.strides
    else:
        image = x
        s_n, s_c, s_h, s_w = x.strides
    return as_strided(
        image,
        (n, c, kernel_h, kernel_w, out_h, out_w),
        (s_n, s_c, s_h, s_w, stride * s_h, stride * s_w),
        writeable=False,
    )


def _gather(windows: np.ndarray, arena: ColumnArena | None) -> np.ndarray:
    """Materialise a window view (in its current axis order) in one copy."""
    if arena is None:
        out = np.empty(windows.shape, dtype=windows.dtype)
    else:
        out = arena.columns(windows.shape, windows.dtype)
    np.copyto(out, windows)
    return out


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    arena: ColumnArena | None = None,
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``, any strides.
    kernel_h, kernel_w:
        Kernel height and width.
    stride:
        Convolution stride.
    padding:
        Symmetric zero padding.
    arena:
        Scratch to gather into instead of allocating (see
        :class:`ColumnArena`); the result is then a view of the arena.

    Returns
    -------
    np.ndarray
        Matrix of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.

    Notes
    -----
    The gather is one pass: ``x`` goes into a zero-bordered image once and a
    single ``np.copyto`` from a strided window view writes every column in
    its final place.  The memory order of the result is part of the
    contract, because BLAS kernel choice (and strided reductions such as
    :class:`~repro.nn.layers.pooling.AvgPool2D`'s mean) follow it:
    C-contiguous for ``N > 1``, and for ``N == 1`` the column-major view
    with strides ``(itemsize, out_h * out_w * itemsize)`` that the
    historical ``transpose(...).reshape(...)`` of the patch tensor produced
    without copying.
    """
    if x.shape[0] == 1:
        patches = im2col_patches(x, kernel_h, kernel_w, stride, padding, arena)
        out_h, out_w = patches.shape[4], patches.shape[5]
        return patches.transpose(0, 4, 5, 1, 2, 3).reshape(out_h * out_w, -1)
    windows = _windows(x, kernel_h, kernel_w, stride, padding, arena)
    cols = _gather(windows.transpose(0, 4, 5, 1, 2, 3), arena)
    return cols.reshape(math.prod(cols.shape[:3]), -1)


def im2col_patches(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    arena: ColumnArena | None = None,
) -> np.ndarray:
    """Gather convolution patches into a 6-D tensor.

    Returns the C-contiguous ``(N, C, kernel_h, kernel_w, out_h, out_w)``
    patch tensor — the same single-pass gather as :func:`im2col`, written in
    patch-major order.  Its per-example slice, flattened NHW-major, is the
    ``N == 1`` column matrix of :func:`im2col` as a view, which is what the
    sample-folded convolution path carves out of one gather over the whole
    fold (see :meth:`repro.nn.layers.conv.Conv2D.forward_folded`).
    """
    return _gather(_windows(x, kernel_h, kernel_w, stride, padding, arena), arena)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`, accumulating overlapping patches.

    Parameters
    ----------
    cols:
        Matrix of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.
    input_shape:
        The original ``(N, C, H, W)`` input shape.

    Returns
    -------
    np.ndarray
        Gradient image of shape ``(N, C, H, W)``.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    img = np.zeros(
        (n, c, h + 2 * padding + stride - 1, w + 2 * padding + stride - 1),
        dtype=cols.dtype,
    )
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            img[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]

    return img[:, :, padding : h + padding, padding : w + padding]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Convert integer class labels to one-hot rows.

    Parameters
    ----------
    labels:
        Integer array of shape ``(N,)``.
    num_classes:
        Total number of classes; every label must be in ``[0, num_classes)``.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for the given num_classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
