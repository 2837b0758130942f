"""Fully-connected (dense) layer."""

from __future__ import annotations

import numpy as np

from ..context import ForwardContext
from ..initializers import he_normal, zeros
from .base import Layer

__all__ = ["Dense"]


class Dense(Layer):
    """Affine transform ``y = x W + b`` over 2-D ``(N, features)`` inputs."""

    def __init__(
        self,
        units: int,
        use_bias: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = int(units)
        self.use_bias = use_bias

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
            "weight", he_normal((in_features, self.units), rng)
        )
        if self.use_bias:
            self.bias = self.add_parameter("bias", zeros((self.units,)))

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

    def forward_folded(self, x: np.ndarray, num_samples: int) -> np.ndarray:
        """Evaluate on a sample-folded ``(S·N, F)`` batch as stacked GEMMs.

        BLAS kernels are not bit-stable across different M, so the fold is
        dispatched as one stacked ``(S, N, F) @ (F, U)`` matmul: ``S`` GEMMs
        with the legacy ``(N, F)`` operand shape.
        """
        if x.shape[0] % num_samples:
            raise ValueError(
                f"folded batch of {x.shape[0]} rows is not divisible by "
                f"num_samples={num_samples}"
            )
        n = x.shape[0] // num_samples
        out = np.matmul(x.reshape(num_samples, n, x.shape[1]), self.weight.value)
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
