"""Tests for im2col / col2im and shape utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import (
    ColumnArena,
    col2im,
    conv_output_size,
    im2col,
    im2col_patches,
    one_hot,
)

from ..conftest import arena_bytes


class TestConvOutputSize:
    def test_same_padding_preserves_size(self):
        assert conv_output_size(28, 3, 1, 1) == 28

    def test_stride_two_halves_size(self):
        assert conv_output_size(32, 2, 2, 0) == 16

    def test_no_padding_shrinks(self):
        assert conv_output_size(28, 5, 1, 0) == 24

    def test_invalid_input_size_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(0, 3, 1, 1)

    def test_invalid_kernel_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(8, 0, 1, 1)

    def test_too_large_kernel_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(4, 9, 1, 0)


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = im2col(x, 3, 3, stride=1, padding=1)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(2, 4, 5, 5))
        cols = im2col(x, 1, 1)
        reconstructed = cols.reshape(2, 5, 5, 4).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(reconstructed, x)

    def test_matches_naive_convolution(self, rng):
        """im2col-based convolution must equal a direct nested-loop convolution."""
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        cols = im2col(x, 3, 3, stride=1, padding=0)
        out = (cols @ w.reshape(3, -1).T).reshape(1, 4, 4, 3).transpose(0, 3, 1, 2)

        expected = np.zeros((1, 3, 4, 4))
        for oc in range(3):
            for i in range(4):
                for j in range(4):
                    expected[0, oc, i, j] = np.sum(
                        x[0, :, i : i + 3, j : j + 3] * w[oc]
                    )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_stride_two(self, rng):
        x = rng.normal(size=(1, 1, 8, 8))
        cols = im2col(x, 2, 2, stride=2)
        assert cols.shape == (16, 4)


class TestCol2Im:
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        size=st.integers(4, 9),
        kernel=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_adjoint_property(self, n, c, size, kernel):
        """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(n, c, size, size))
        cols = im2col(x, kernel, kernel, stride=1, padding=0)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        back = col2im(y, x.shape, kernel, kernel, stride=1, padding=0)
        rhs = float(np.sum(x * back))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_accumulates_overlaps(self):
        x_shape = (1, 1, 3, 3)
        cols = np.ones((1 * 2 * 2, 1 * 2 * 2))
        img = col2im(cols, x_shape, 2, 2, stride=1, padding=0)
        # centre pixel is covered by all four 2x2 windows
        assert img[0, 0, 1, 1] == 4.0
        assert img[0, 0, 0, 0] == 1.0


# --------------------------------------------------------------------------- #
# the single-pass gather against two oracles
# --------------------------------------------------------------------------- #
def _naive_im2col(x, kh, kw, stride, padding):
    """The definition, one element at a time."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = np.zeros((n * oh * ow, c * kh * kw), dtype=x.dtype)
    for b in range(n):
        for oy in range(oh):
            for ox in range(ow):
                row = (b * oh + oy) * ow + ox
                for ch in range(c):
                    for ky in range(kh):
                        for kx in range(kw):
                            y = oy * stride + ky - padding
                            xx = ox * stride + kx - padding
                            if 0 <= y < h and 0 <= xx < w:
                                cols[row, (ch * kh + ky) * kw + kx] = x[b, ch, y, xx]
    return cols


def _historical_im2col(x, kh, kw, stride, padding):
    """The pad / patch-copies / transpose-reshape gather this repo grew up on.

    Kept as the oracle for the *memory order* of the result: which cases
    come back as a no-copy view, and with which strides, was a side effect
    of its trailing ``reshape`` that BLAS dispatch and strided reductions
    came to depend on.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    img = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.zeros((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, :, ky, kx] = img[
                :, :, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride
            ]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1)


def _historical_col2im(cols, input_shape, kh, kw, stride, padding):
    """The NCHW scatter-add this repo grew up on.

    Kept as the oracle for the bits *and* the memory order of the gradient
    image: each pixel's additions in ``(ky, kx)`` order from ``+0.0``, and
    the interior view of a C-contiguous padded NCHW buffer, whose strides
    ``BatchNorm``'s backward sums follow.
    """
    n, c, h, w = input_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros(
        (n, c, h + 2 * padding + stride - 1, w + 2 * padding + stride - 1),
        dtype=cols.dtype,
    )
    for ky in range(kh):
        for kx in range(kw):
            img[
                :, :, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride
            ] += cols[:, :, ky, kx]
    return img[:, :, padding : h + padding, padding : w + padding]


def _layout(a):
    """What consumers can observe of an array's memory order."""
    strides = [s for s, extent in zip(a.strides, a.shape) if extent > 1]
    return strides, a.flags.c_contiguous, a.flags.f_contiguous


def _in_layout(x, layout):
    """``x`` with the same values, in one of the memory orders gathers meet."""
    if layout == "nhwc":  # the NCHW view of NHWC memory convs emit
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "strided":  # neither: every other column of a wider buffer
        n, c, h, w = x.shape
        wide = np.zeros((n, c, h, 2 * w), dtype=x.dtype)
        wide[..., ::2] = x
        return wide[..., ::2]
    return np.ascontiguousarray(x)


@st.composite
def _gather_cases(draw):
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    padding = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * padding), 7))
    w = draw(st.integers(max(1, kw - 2 * padding), 7))
    return dict(
        n=draw(st.integers(1, 3)),
        c=draw(st.integers(1, 6)),
        h=h,
        w=w,
        kh=kh,
        kw=kw,
        stride=draw(st.integers(1, 3)),
        padding=padding,
        dtype=draw(st.sampled_from([np.float64, np.float32, np.int64])),
        layout=draw(st.sampled_from(["nchw", "nhwc", "strided"])),
        use_arena=draw(st.booleans()),
    )


class TestSinglePassGather:
    @given(case=_gather_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_definition_and_the_historical_layout(self, case):
        n, c, h, w = case["n"], case["c"], case["h"], case["w"]
        args = (case["kh"], case["kw"], case["stride"], case["padding"])
        x = np.random.default_rng(0).normal(size=(n, c, h, w)) * 8
        x = _in_layout(x.astype(case["dtype"]), case["layout"])
        arena = ColumnArena() if case["use_arena"] else None

        cols = im2col(x, *args, arena=arena)
        want = _historical_im2col(x, *args)
        assert cols.dtype == x.dtype and cols.shape == want.shape
        np.testing.assert_array_equal(cols, _naive_im2col(x, *args))
        assert _layout(cols) == _layout(want)
        if n == 1:  # column-major, incl. 1x1 outputs and one-channel pooling
            assert cols.flags.f_contiguous
            if min(cols.shape) > 1:
                assert cols.strides == (x.itemsize, cols.shape[0] * x.itemsize)
        else:
            assert cols.flags.c_contiguous
        # pooling splits the column axis per channel; that must stay a view
        per_channel = cols.reshape(cols.shape[0], c, case["kh"] * case["kw"])
        assert np.shares_memory(per_channel, cols)
        assert _layout(per_channel) == _layout(want.reshape(per_channel.shape))

        patches = im2col_patches(x, *args, arena=arena)
        assert patches.flags.c_contiguous and patches.shape[:4] == (n, c, *args[:2])
        np.testing.assert_array_equal(
            patches.transpose(0, 4, 5, 1, 2, 3).reshape(want.shape), want
        )

    @given(case=_gather_cases())
    @settings(max_examples=100, deadline=None)
    def test_col2im_is_still_the_adjoint(self, case):
        n, c, h, w = case["n"], case["c"], case["h"], case["w"]
        if case["kh"] != case["kw"]:
            return  # col2im is exercised on the square windows layers use
        args = (case["kh"], case["kw"], case["stride"], case["padding"])
        rng = np.random.default_rng(1)
        x = rng.normal(size=(n, c, h, w))
        cols = im2col(x, *args)
        y = rng.normal(size=cols.shape)
        back = col2im(y, x.shape, *args)
        np.testing.assert_allclose(np.sum(cols * y), np.sum(x * back), rtol=1e-9)

    @given(case=_gather_cases())
    @settings(max_examples=200, deadline=None)
    def test_col2im_matches_the_historical_bits_and_layout(self, case):
        """Same bytes and strides as the NCHW scatter-add, on data where each
        of its properties shows: ``-0.0`` everywhere a pixel gets only
        ``-0.0`` (the image starts at ``+0.0``), and overlapping windows
        (``stride < kernel``) of widely spread magnitudes, whose sums round
        differently in another order."""
        n, c, h, w = case["n"], case["c"], case["h"], case["w"]
        args = (case["kh"], case["kw"], case["stride"], case["padding"])
        rng = np.random.default_rng(2)
        oh = (h + 2 * case["padding"] - case["kh"]) // case["stride"] + 1
        ow = (w + 2 * case["padding"] - case["kw"]) // case["stride"] + 1
        shape = (n * oh * ow, c * case["kh"] * case["kw"])
        spread = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        cols = np.where(rng.random(shape) < 0.4, zeros, spread).astype(case["dtype"])

        got = col2im(cols, (n, c, h, w), *args)
        want = _historical_col2im(cols, (n, c, h, w), *args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert _layout(got) == _layout(want)

    @given(
        padded=st.tuples(st.integers(5, 8), st.integers(5, 8)),
        c=st.integers(1, 3),
        dtype=st.sampled_from([np.float64, np.float32]),
        gathers=st.lists(
            st.tuples(
                st.integers(1, 3),  # n
                st.integers(0, 2),  # padding
                st.integers(1, 3),  # kernel
                st.integers(1, 2),  # stride
            ),
            min_size=2,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_arena_serves_any_sequence_of_gathers(self, padded, c, dtype, gathers):
        """Nothing a gather leaves in the arena may leak into the next one.

        Every gather of a sequence pads to the same ``(H', W', C)`` and
        dtype — the worst case for the arena's persistent bordered images —
        while batch size, padding, kernel and stride vary.
        """
        arena = ColumnArena()
        for i, (n, padding, kernel, stride) in enumerate(gathers):
            shape = (n, c, padded[0] - 2 * padding, padded[1] - 2 * padding)
            x = (np.random.default_rng(i).normal(size=shape) * 8 + 1).astype(dtype)
            args = (kernel, kernel, stride, padding)
            np.testing.assert_array_equal(
                im2col(x, *args, arena=arena), _naive_im2col(x, *args)
            )

    def test_equal_padded_geometry_with_different_padding_shares_no_border(self):
        """6x6 at p=1 and 4x4 at p=2 both pad to 8x8: two bordered images."""
        arena = ColumnArena()
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(2, 3, 4, 4))
        im2col(a, 3, 3, 1, 1, arena=arena)
        got = im2col(b, 5, 5, 1, 2, arena=arena)
        np.testing.assert_array_equal(got, im2col(b, 5, 5, 1, 2))
        np.testing.assert_array_equal(
            im2col(a, 3, 3, 1, 1, arena=arena), im2col(a, 3, 3, 1, 1)
        )

    def test_arena_is_reused_and_bounded(self, rng):
        arena = ColumnArena()
        small = rng.normal(size=(2, 3, 6, 6))
        large = rng.normal(size=(5, 3, 6, 6))
        first = im2col(small, 3, 3, 1, 1, arena=arena)
        assert np.shares_memory(first, arena._columns)
        size_small = arena_bytes(arena)
        im2col(large, 3, 3, 1, 1, arena=arena)
        size_large = arena_bytes(arena)
        assert size_large > size_small
        for x in (small, large, small.astype(np.float32), large):
            cols = im2col(x, 3, 3, 1, 1, arena=arena)
            np.testing.assert_array_equal(cols, _naive_im2col(x, 3, 3, 1, 1))
        # the float32 batch of 2 got its own bordered image; nothing else grew
        assert arena_bytes(arena) == size_large + 2 * 8 * 8 * 3 * 4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("layout", ["nchw", "nhwc", "strided"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_both_gathers_match_the_historical_bytes_and_strides(
        self, dtype, layout, stride, padding
    ):
        """Every input memory order, read in place or copied into a bordered
        image of its own order, gathers the historical bytes into the
        historical layout — with and without an arena, for N > 1 and N == 1."""
        rng = np.random.default_rng(3)
        arena = ColumnArena()
        for n, (c, h, w) in ((3, (4, 7, 6)), (1, (3, 5, 7))):
            x = _in_layout((rng.normal(size=(n, c, h, w)) * 8).astype(dtype), layout)
            for kernel in (1, 3):
                args = (kernel, kernel, stride, padding)
                want = _historical_im2col(x, *args)
                for use in (None, arena):
                    cols = im2col(x, *args, arena=use)
                    assert cols.dtype == want.dtype and cols.shape == want.shape
                    assert cols.tobytes() == want.tobytes()
                    assert _layout(cols) == _layout(want)
                    patches = im2col_patches(x, *args, arena=use)
                    assert patches.flags.c_contiguous
                    flat = patches.transpose(0, 4, 5, 1, 2, 3).reshape(want.shape)
                    assert flat.tobytes() == want.tobytes()

    def test_one_arena_keeps_channels_first_and_last_images_apart(self):
        """8 channels of 6x6 at p=1 pad to (8, 8, 8) in either order: the
        channels-last image must not be the channels-first one, whose
        interior lies where the channels-last border is."""
        arena = ColumnArena()
        rng = np.random.default_rng(0)
        first = rng.normal(size=(2, 8, 6, 6)) + 1
        last = _in_layout(rng.normal(size=(2, 8, 6, 6)) + 1, "nhwc")
        for x in (first, last, first, last):
            np.testing.assert_array_equal(
                im2col(x, 3, 3, 1, 1, arena=arena), _naive_im2col(x, 3, 3, 1, 1)
            )
            np.testing.assert_array_equal(
                im2col_patches(x, 3, 3, 1, 1, arena=arena),
                im2col_patches(x, 3, 3, 1, 1),
            )
        assert len(arena._bordered) == 2

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_an_empty_batch_gathers_nothing(self, layout):
        x = _in_layout(np.zeros((0, 3, 6, 6)), layout)
        assert im2col(x, 3, 3, 1, 1).shape == (0, 27)
        assert im2col(x, 3, 3, 1, 0, arena=ColumnArena()).shape == (0, 27)
        assert im2col_patches(x, 3, 3, 1, 1).shape == (0, 3, 3, 3, 6, 6)

    def test_negative_padding_raises(self, rng):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 1, 4, 4)), 3, 3, 1, -1)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_rows_sum_to_one(self, rng):
        labels = rng.integers(0, 7, size=20)
        out = one_hot(labels, 7)
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(20))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 5]), 3)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)
