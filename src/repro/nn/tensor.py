"""Tensor manipulation helpers for the NumPy neural-network substrate.

All convolution layers in :mod:`repro.nn` use the ``NCHW`` layout
(batch, channels, height, width).  The helpers in this module implement the
im2col / col2im lowering used by :class:`repro.nn.layers.conv.Conv2D` so that
convolutions reduce to a single matrix multiplication, which keeps the pure
NumPy implementation fast enough for the scaled-down experiments in this
repository.

There is one gather.  :func:`im2col` (and its patch-major form
:func:`im2col_patches`) serves training, pooling and the planned inference
prefix alike: the input stays in its own memory order — read in place when
it needs no border and is NCHW- or NHWC-contiguous (the NCHW view of NHWC
memory convolutions emit), otherwise written once into a zero-bordered
image of the same order — and a single ``np.take`` of one example's flat
source offsets, cached per geometry and layout, puts every element in its
final place in the columns.  Callers that lower the same layers batch
after batch pass a :class:`ColumnArena` and get the columns as a view of
reusable scratch; everyone else gets a fresh array.  The memory order of
the result (C-contiguous, except the column-major view for a single
example) is part of the contract — see :func:`im2col`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
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


class ColumnArena:
    """Reusable scratch for :func:`im2col`: one column buffer, bordered images.

    A caller that lowers the same convolutions batch after batch (the
    inference prefix plan, :mod:`repro.inference.plan`) passes one arena to
    every gather instead of letting each allocate.  It holds

    * **one** flat column buffer, grown to the largest column matrix any
      gather has asked for and carved per call into a view of the caller's
      dtype — so a float32 batch never turns the buffer a later float64
      batch reads into float32 storage; and
    * one zero-bordered image per distinct layout (channels-first or
      channels-last), padded geometry, padding ``p`` and dtype, grown to
      the largest batch seen.  Only the interior is ever written, so the
      border is zeroed once — which is why ``p`` and the layout are part of
      the key: a 6×6 input at ``p = 1`` and a 4×4 input at ``p = 2`` both
      pad to 8×8, and an ``(8, 8, 8)`` image is as long channels-first as
      channels-last; either way the second user would read the first one's
      interior as its border.  An unpadded gather needs an image only when
      its input is neither NCHW- nor NHWC-contiguous: then it is the
      channels-first ``p = 0`` copy.

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
        self,
        shape: tuple[int, ...],
        padding: int,
        dtype: np.dtype,
        channels_last: bool,
    ) -> np.ndarray:
        """A C-contiguous ``shape`` image whose ``padding``-wide border is zero.

        ``shape`` is ``(N, C, H', W')``, or ``(N, H', W', C)`` when
        ``channels_last``.
        """
        key = (channels_last, shape[1:], padding, dtype.str)
        image = self._bordered.get(key)
        if image is None or image.shape[0] < shape[0]:
            image = self._bordered[key] = np.zeros(shape, dtype=dtype)
        return image[: shape[0]]


def _image(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    arena: ColumnArena | None,
) -> tuple[np.ndarray, bool, int, int]:
    """``(image, channels_last, out_h, out_w)``: ``x`` zero-bordered, in its own order.

    The image is C-contiguous ``(N, C, H', W')``, or ``(N, H', W', C)``
    when ``channels_last``.  It keeps the memory order of ``x``: an
    NCHW-contiguous input gives a channels-first image and the NCHW view of
    NHWC memory that convolutions emit gives a channels-last one, ``x``
    itself when there is no border to add, otherwise a copy into the
    interior of a fresh image or of the arena's.  An input with any other
    strides is copied into a channels-first image.
    """
    if padding < 0:
        raise ValueError("padding must be non-negative")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    nhwc = x.transpose(0, 2, 3, 1)
    channels_last = not x.flags.c_contiguous and nhwc.flags.c_contiguous
    if not padding and (x.flags.c_contiguous or channels_last):
        return (nhwc if channels_last else x), channels_last, out_h, out_w
    size_h, size_w = h + 2 * padding, w + 2 * padding
    shape = (n, size_h, size_w, c) if channels_last else (n, c, size_h, size_w)
    if arena is not None:
        image = arena.bordered(shape, padding, x.dtype, channels_last)
    else:
        image = (np.zeros if padding else np.empty)(shape, dtype=x.dtype)
    rows, columns = slice(padding, padding + h), slice(padding, padding + w)
    if channels_last:
        image[:, rows, columns] = nhwc
    else:
        image[:, :, rows, columns] = x
    return image, channels_last, out_h, out_w


@functools.lru_cache(maxsize=None)
def _offsets(
    channels_last: bool,
    c: int,
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    out_h: int,
    out_w: int,
    patch_major: bool,
) -> np.ndarray:
    """One example's flat source offsets into a ``(C, H', W')`` image.

    Element ``(c, y, x)`` sits at ``(c·H' + y)·W' + x`` in a channels-first
    image and at ``(y·W' + x)·C + c`` in a channels-last one.  The offsets
    come in column order ``(out_h, out_w, c, ky, kx)``, or in patch order
    ``(c, ky, kx, out_h, out_w)`` when ``patch_major``.  Cached per
    geometry (not per batch size) and read-only, since every gather of the
    same layer shares them; the layer lists a process lowers bound the
    cache.
    """
    if channels_last:
        step_c, step_y, step_x = 1, width * c, c
    else:
        step_c, step_y, step_x = height * width, width, 1
    chan = np.arange(c, dtype=np.intp) * step_c
    # (out, kernel) source row / column of each window position
    ys = (np.arange(out_h)[:, None] * stride + np.arange(kernel_h)) * step_y
    xs = (np.arange(out_w)[:, None] * stride + np.arange(kernel_w)) * step_x
    if patch_major:
        offsets = (
            chan[:, None, None, None, None]
            + ys.T[None, :, None, :, None]
            + xs.T[None, None, :, None, :]
        )
    else:
        offsets = (
            ys[:, None, None, :, None]
            + xs[None, :, None, None, :]
            + chan[None, None, :, None, None]
        )
    offsets = np.ascontiguousarray(offsets, dtype=np.intp).ravel()
    offsets.flags.writeable = False
    return offsets


def _gather(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    arena: ColumnArena | None,
    patch_major: bool,
) -> tuple[np.ndarray, int, int]:
    """``(flat, out_h, out_w)``: every example's columns, one row per example.

    ``flat`` is a C-contiguous ``(N, oh·ow·C·kh·kw)`` array (fresh or a
    view of the arena) holding each example's gather in column or patch
    order: one ``np.take`` of the cached offsets from the image viewed as
    ``(N, C·H'·W')``.
    """
    image, channels_last, out_h, out_w = _image(
        x, kernel_h, kernel_w, stride, padding, arena
    )
    n, c, h, w = x.shape
    size_h, size_w = h + 2 * padding, w + 2 * padding
    offsets = _offsets(
        channels_last,
        c,
        size_h,
        size_w,
        kernel_h,
        kernel_w,
        stride,
        out_h,
        out_w,
        patch_major,
    )
    flat = _scratch((n, offsets.size), x.dtype, arena)
    # "clip" writes straight into ``flat`` ("raise" would buffer it); the
    # offsets are in range by construction
    source = image.reshape(n, c * size_h * size_w)
    np.take(source, offsets, axis=1, out=flat, mode="clip")
    return flat, out_h, out_w


def _scratch(
    shape: tuple[int, ...], dtype: np.dtype, arena: ColumnArena | None
) -> np.ndarray:
    """A C-contiguous ``shape`` array: fresh, or a view of the arena."""
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.columns(shape, dtype)


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
    The gather is one ``np.take``: the image (``x`` in its own memory
    order, zero-bordered where ``padding > 0``) is viewed as
    ``(N, C·H'·W')``, and one example's flat source offsets — cached per
    geometry and layout — pick every column element, in its final place,
    out of each example's row.  The memory order of the result is part of
    the contract, because BLAS kernel choice follows it: C-contiguous for
    ``N > 1``, and for ``N == 1`` the column-major view with strides
    ``(itemsize, out_h * out_w * itemsize)`` that the historical
    ``transpose(...).reshape(...)`` of the patch tensor produced without
    copying.
    """
    if x.shape[0] == 1:
        patches = im2col_patches(x, kernel_h, kernel_w, stride, padding, arena)
        out_h, out_w = patches.shape[4], patches.shape[5]
        return patches.transpose(0, 4, 5, 1, 2, 3).reshape(out_h * out_w, -1)
    flat, out_h, out_w = _gather(
        x, kernel_h, kernel_w, stride, padding, arena, patch_major=False
    )
    n, c = x.shape[:2]
    return flat.reshape(n * out_h * out_w, c * kernel_h * kernel_w)


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
    patch tensor — the same single ``np.take`` as :func:`im2col`, with the
    offsets in patch-major order.  Its per-example slice, flattened
    NHW-major, is the ``N == 1`` column matrix of :func:`im2col` as a view.
    """
    flat, out_h, out_w = _gather(
        x, kernel_h, kernel_w, stride, padding, arena, patch_major=True
    )
    return flat.reshape(x.shape[:2] + (kernel_h, kernel_w, out_h, out_w))


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
        Gradient image of shape ``(N, C, H, W)``: the interior view of a
        fresh C-contiguous ``(N, C, H + 2p + stride - 1, W + 2p + stride - 1)``
        buffer, whose strides downstream reductions (``BatchNorm``'s
        backward sums) follow.

    Notes
    -----
    The patches are added channels-last, into a zero ``(N, H', W', C)``
    image, so that each kernel position's ``+=`` writes whole
    ``(out_w, C)`` rows; every pixel still receives its additions in
    ``(ky, kx)`` order starting from ``+0.0``.  The interior is then copied
    into the channels-first buffer.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    size_h = h + 2 * padding + stride - 1
    size_w = w + 2 * padding + stride - 1

    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    img = np.zeros((n, size_h, size_w, c), dtype=cols.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            img[:, ky:y_max:stride, kx:x_max:stride] += cols[..., ky, kx]

    rows, columns = slice(padding, h + padding), slice(padding, w + padding)
    out = np.empty((n, c, size_h, size_w), dtype=cols.dtype)[:, :, rows, columns]
    np.copyto(out, img[:, rows, columns].transpose(0, 3, 1, 2))
    return out


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
