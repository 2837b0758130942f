"""Fully-connected (dense) layer."""

from __future__ import annotations

import numpy as np

from ..context import ForwardContext
from ..initializers import Initializer, Zeros, get_initializer
from .base import Layer

__all__ = ["Dense"]


class Dense(Layer):
    """Affine transform ``y = x W + b`` over 2-D ``(N, features)`` inputs."""

    def __init__(
        self,
        units: int,
        use_bias: bool = True,
        weight_initializer: str | Initializer = "he_normal",
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = int(units)
        self.use_bias = use_bias
        self.weight_initializer = get_initializer(weight_initializer)
        self._bias_initializer = Zeros()

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects a flat (features,) input, got {input_shape}; "
                "insert a Flatten layer first"
            )
        return (self.units,)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        super().build(input_shape, rng)
        in_features = input_shape[0]
        self.weight = self.add_parameter(
            "weight", self.weight_initializer((in_features, self.units), rng)
        )
        if self.use_bias:
            self.bias = self.add_parameter(
                "bias", self._bias_initializer((self.units,), rng)
            )

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        self._ctx(ctx).save(self, x)
        out = x @ self.weight.value
        if self.use_bias:
            out = out + self.bias.value
        return out

    def forward_folded(
        self,
        x: np.ndarray,
        num_samples: int,
        scaled_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate on a sample-folded ``(S·N, F)`` batch as stacked GEMMs.

        BLAS kernels are not bit-stable across different M, so the fold is
        dispatched as ``S`` GEMMs with the legacy ``(N, F)`` operand shape —
        via one stacked ``(S, N, F) @ (F, U)`` matmul when no mask is fused.

        With ``scaled_mask`` (the preceding MC-dropout layer's scaled
        keep-mask, same shape as ``x``), the mask is folded into the GEMM
        operand block by block: each sample block is masked into one
        reusable ``(N, F)`` scratch and multiplied immediately, so the full
        ``(S·N, F)`` masked intermediate is never materialised.  The
        per-block elementwise product and the per-block GEMM see exactly the
        values and operand layout of the unfused path, keeping the fused
        kernel bit-identical to ``dropout.forward`` + ``forward_folded``.
        """
        if x.shape[0] % num_samples:
            raise ValueError(
                f"folded batch of {x.shape[0]} rows is not divisible by "
                f"num_samples={num_samples}"
            )
        n = x.shape[0] // num_samples
        w = self.weight.value
        if scaled_mask is None:
            stacked = x.reshape(num_samples, n, x.shape[1])
            out = np.matmul(stacked, w)
        else:
            out = np.empty((num_samples, n, self.units), dtype=np.result_type(x, w))
            buf = np.empty((n, x.shape[1]), dtype=out.dtype)
            for s in range(num_samples):
                block = slice(s * n, (s + 1) * n)
                np.multiply(x[block], scaled_mask[block], out=buf)
                np.matmul(buf, w, out=out[s])
        if self.use_bias:
            out = out + self.bias.value
        return out.reshape(num_samples * n, self.units)

    def backward_params(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> None:
        x = self._ctx(ctx).saved(self)
        self.weight.grad += x.T @ grad_output
        if self.use_bias:
            self.bias.grad += grad_output.sum(axis=0)

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        self.backward_params(grad_output, ctx)
        return grad_output @ self.weight.value.T

    def describe(self) -> dict:
        info = super().describe()
        info.update({"units": self.units, "use_bias": self.use_bias})
        return info
