"""Column-kernel benchmark: ``im2col`` and ``col2im`` move kernel rows.

Both kernels used to move one element at a time through 6-D strided views
whose innermost extent was ``kw`` (the gather) or ``C`` (the scatter-add),
so NumPy's per-inner-loop overhead set their speed.  The gather now copies
whole ``kw``-element kernel rows out of one channels-first image (each row
one void item), and ``col2im`` adds channels-last, so each kernel
position's ``+=`` writes whole ``(ow, C)`` rows, then copies the image back
into the historical NCHW layout.

Gates, at the ``train_distill`` LeNet's shapes (full width, 20x20 inputs,
N = 32, each convolution fed the input it sees in training):

* the two convolutions' gathers together are at least ``GATHER_MIN_SPEEDUP``
  times the element-wise single-copy gather they replaced, and
* ``conv2``'s ``col2im`` is at least ``COL2IM_MIN_SPEEDUP`` times the NCHW
  scatter-add it replaced,

both bit-exact (and, for ``col2im``, stride-exact).  Both sides are NumPy on
one thread with the same inputs, so the ratios say what moving elements
instead of runs costs, not how fast the box is.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.nn.tensor import col2im, conv_output_size, im2col
from tests.nn.test_tensor import _historical_col2im, _historical_im2col, _layout

from . import reporting
from .test_conv_fold import _best_seconds_each

#: 1.45-1.50x (gathers) and 1.64-1.68x (col2im) over three runs on the
#: 2-vCPU dev box
GATHER_MIN_SPEEDUP = 1.3
COL2IM_MIN_SPEEDUP = 1.3
BATCH = 32
REPEATS = 200


def _element_im2col(x, kernel_h, kernel_w, stride, padding):
    """The gather this replaced: one ``np.copyto`` from a 6-D window view.

    The view reads a zero-bordered NHWC image (``x`` itself when unpadded)
    and its innermost axis is ``kernel_w`` elements long, so the copy moves
    one element per step.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if padding:
        image = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        image[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
        s_n, s_h, s_w, s_c = image.strides
    else:
        image = x
        s_n, s_c, s_h, s_w = x.strides
    windows = as_strided(
        image,
        (n, out_h, out_w, c, kernel_h, kernel_w),
        (s_n, stride * s_h, stride * s_w, s_c, s_h, s_w),
        writeable=False,
    )
    cols = np.empty(windows.shape, dtype=x.dtype)
    np.copyto(cols, windows)
    return cols.reshape(n * out_h * out_w, -1)


@pytest.mark.timeout(300)
def test_column_kernels_move_rows():
    """Gate: both gathers and conv2's col2im >= 1.3x the element-wise kernels."""
    spec = lenet5_spec(input_shape=(1, 20, 20), num_classes=10)
    model = MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )
    backbone = model.backbone
    conv1, conv2 = backbone.layers[0], backbone.layers[3]
    assert (conv1.name, conv2.name) == ("conv1", "conv2")
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=(BATCH, 1, 20, 20))
    x2 = backbone.forward_range(x1, 0, 3, training=True)  # pool1's output
    gathers = [
        (x, conv.kernel_size, conv.kernel_size, conv.stride, conv.padding)
        for x, conv in ((x1, conv1), (x2, conv2))
    ]
    k = conv2.kernel_size
    _, out_h, out_w = conv2.output_shape
    grad_cols = rng.normal(size=(BATCH * out_h * out_w, x2.shape[1] * k * k))
    scatter = (grad_cols, x2.shape, k, k, conv2.stride, conv2.padding)

    for args in gathers:
        got = im2col(*args)
        assert got.tobytes() == _element_im2col(*args).tobytes()
        assert _layout(got) == _layout(_historical_im2col(*args))
    got, want = col2im(*scatter), _historical_col2im(*scatter)
    assert got.tobytes() == want.tobytes() and got.strides == want.strides

    t_rows, t_elements, t_col2im, t_scatter = _best_seconds_each(
        lambda: [im2col(*args) for args in gathers],
        lambda: [_element_im2col(*args) for args in gathers],
        lambda: col2im(*scatter),
        lambda: _historical_col2im(*scatter),
        repeats=REPEATS,
    )
    gather_speedup = t_elements / t_rows
    col2im_speedup = t_scatter / t_col2im
    print(
        f"\ncolumn kernels (lenet5 20x20, N={BATCH}): conv1+conv2 im2col "
        f"{t_elements * 1e3:.3f} -> {t_rows * 1e3:.3f} ms ({gather_speedup:.2f}x), "
        f"conv2 col2im {t_scatter * 1e3:.3f} -> {t_col2im * 1e3:.3f} ms "
        f"({col2im_speedup:.2f}x), bit-exact"
    )
    reporting.record(
        "column_kernels",
        arch="lenet5_20x20",
        batch=BATCH,
        element_gathers_s=t_elements,
        row_gathers_s=t_rows,
        gather_speedup=gather_speedup,
        nchw_col2im_s=t_scatter,
        row_col2im_s=t_col2im,
        col2im_speedup=col2im_speedup,
        bit_exact=True,
    )
    assert gather_speedup >= GATHER_MIN_SPEEDUP, (
        f"conv1+conv2 im2col only {gather_speedup:.2f}x over the element-wise "
        f"gather, gate {GATHER_MIN_SPEEDUP}x — the copy moves elements again"
    )
    assert col2im_speedup >= COL2IM_MIN_SPEEDUP, (
        f"conv2 col2im only {col2im_speedup:.2f}x over the NCHW scatter-add, "
        f"gate {COL2IM_MIN_SPEEDUP}x — the additions write short rows again"
    )
