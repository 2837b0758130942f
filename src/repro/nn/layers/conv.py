"""2-D convolution layer implemented via im2col lowering."""

from __future__ import annotations

import numpy as np

from ..context import ForwardContext
from ..initializers import he_normal, zeros
from ..tensor import ColumnArena, col2im, conv_output_size, im2col
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
