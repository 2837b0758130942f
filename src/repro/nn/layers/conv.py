"""2-D convolution layer implemented via im2col lowering."""

from __future__ import annotations

import numpy as np

from ..context import ForwardContext
from ..initializers import he_normal, zeros
from ..tensor import ColumnArena, col2im, conv_output_size, im2col, im2col_patches
from .base import Layer

__all__ = ["Conv2D"]


class Conv2D(Layer):
    """2-D convolution over NCHW inputs.

    Parameters
    ----------
    filters:
        Number of output channels.
    kernel_size:
        Square kernel size.
    stride:
        Convolution stride (same along both spatial dimensions).
    padding:
        Symmetric zero padding, or ``"same"`` to preserve spatial size when
        ``stride == 1``.
    use_bias:
        Whether to add a per-channel bias.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int | str = "same",
        use_bias: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if filters <= 0:
            raise ValueError("filters must be positive")
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.use_bias = use_bias
        if padding == "same":
            if kernel_size % 2 == 0:
                raise ValueError("'same' padding requires an odd kernel size")
            self.padding = (kernel_size - 1) // 2
        else:
            self.padding = int(padding)
            if self.padding < 0:
                raise ValueError("padding must be non-negative")

    # ------------------------------------------------------------------ #
    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (C, H, W) input, got {input_shape}")
        _, h, w = input_shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.filters, out_h, out_w)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        super().build(input_shape, rng)
        in_channels = input_shape[0]
        w_shape = (self.filters, in_channels, self.kernel_size, self.kernel_size)
        self.weight = self.add_parameter("weight", he_normal(w_shape, rng))
        if self.use_bias:
            self.bias = self.add_parameter("bias", zeros((self.filters,)))

    # ------------------------------------------------------------------ #
    def lower(
        self, x: np.ndarray, arena: ColumnArena | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The convolution as one GEMM: ``(output, column matrix)``.

        The output is the NCHW view of the freshly allocated NHWC GEMM
        result, bias added.  With an ``arena`` the column matrix is a view
        of reusable scratch (see :class:`~repro.nn.tensor.ColumnArena`) —
        for callers that will not keep it for a backward pass.
        """
        out_c, out_h, out_w = self.output_shape
        cols = im2col(
            x, self.kernel_size, self.kernel_size, self.stride, self.padding, arena
        )
        out = cols @ self.weight.value.reshape(self.filters, -1).T
        if self.use_bias:
            out += self.bias.value
        out = out.reshape(x.shape[0], out_h, out_w, out_c).transpose(0, 3, 1, 2)
        return out, cols

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        out, cols = self.lower(x)
        self._ctx(ctx).save(self, (x.shape, cols))
        return out

    def forward_folded(self, x: np.ndarray, num_samples: int) -> np.ndarray:
        """Inference-only forward on a sample-folded ``(S·N, C, H, W)`` batch.

        Bit-identical to running :meth:`forward` once per ``(N, …)`` sample
        slice and concatenating, by the same argument that makes the Dense
        flat-fold exact: ``im2col`` is a pure gather (no arithmetic), and
        the fold is sample-major, so the folded column matrix is exactly
        the per-slice column matrices stacked along the row axis.  Reshaping
        it to ``(S, N·oh·ow, C·kh·kw)`` and using the stacked ``np.matmul``
        then dispatches one GEMM per sample *with the legacy shapes and
        memory order* — BLAS never sees a different M or a different
        packing path, so kernel selection cannot change a bit.  The bias
        add and the NHWC→NCHW untangling are row-wise and fold-stable.

        The one wrinkle is ``N == 1``: there :func:`~repro.nn.tensor.im2col`
        hands BLAS the column-major *view* of the patch tensor, which takes
        the transposed-A GEMM path — feeding it the C-ordered fold would
        change the result's bits.  Single-example slices therefore gather
        the patch-major tensor (:func:`~repro.nn.tensor.im2col_patches`: the
        column gather's single ``np.take``, offsets in patch order) once
        over the whole fold; viewed as
        ``(S, oh·ow, C·kh·kw)`` its per-sample slices have exactly the
        legacy strides ``(itemsize, oh·ow·itemsize)``, so the stacked matmul
        again dispatches one GEMM per sample on the legacy operand layout
        while the gather stays amortised.

        No backward cache is saved: the folded path exists for the
        inference hot path only (see :mod:`repro.inference.folding`).
        """
        sn = x.shape[0]
        if sn % num_samples:
            raise ValueError(
                f"folded batch of {sn} rows is not divisible by "
                f"num_samples={num_samples}"
            )
        n = sn // num_samples
        out_c, out_h, out_w = self.output_shape
        w_mat = self.weight.value.reshape(self.filters, -1).T
        if n == 1:
            patches = im2col_patches(
                x, self.kernel_size, self.kernel_size, self.stride, self.padding
            )
            stacked = patches.transpose(0, 4, 5, 1, 2, 3).reshape(
                num_samples, out_h * out_w, -1
            )
        else:
            cols = im2col(
                x, self.kernel_size, self.kernel_size, self.stride, self.padding
            )
            stacked = cols.reshape(num_samples, n * out_h * out_w, -1)
        out = np.matmul(stacked, w_mat).reshape(sn * out_h * out_w, -1)
        if self.use_bias:
            out += self.bias.value
        return out.reshape(sn, out_h, out_w, out_c).transpose(0, 3, 1, 2)

    def _accumulate_param_grads(
        self, grad_output: np.ndarray, ctx: ForwardContext | None
    ) -> tuple[tuple[int, ...], np.ndarray]:
        """The parameter half of :meth:`backward`: ``(input shape, grad matrix)``."""
        x_shape, cols = self._ctx(ctx).saved(self)
        grad_mat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.filters)
        self.weight.grad += (cols.T @ grad_mat).T.reshape(self.weight.value.shape)
        if self.use_bias:
            self.bias.grad += grad_mat.sum(axis=0)
        return x_shape, grad_mat

    def backward_params(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> None:
        self._accumulate_param_grads(grad_output, ctx)

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        x_shape, grad_mat = self._accumulate_param_grads(grad_output, ctx)
        grad_cols = grad_mat @ self.weight.value.reshape(self.filters, -1)
        grad_input = col2im(
            grad_cols,
            x_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return grad_input

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "filters": self.filters,
                "kernel_size": self.kernel_size,
                "stride": self.stride,
                "padding": self.padding,
                "use_bias": self.use_bias,
            }
        )
        return info
