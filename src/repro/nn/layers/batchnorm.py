"""Batch normalization for convolutional (NCHW) and dense (NF) inputs."""

from __future__ import annotations

import numpy as np

from ..context import ForwardContext
from .base import Layer

__all__ = ["BatchNorm"]


class BatchNorm(Layer):
    """Batch normalization with running statistics.

    Works on both ``(N, C, H, W)`` tensors (normalising per channel) and
    ``(N, F)`` tensors (normalising per feature).

    The running mean/variance live on the layer, not in the
    :class:`~repro.nn.context.ForwardContext`: they are learned model state
    (like parameters, shared by all contexts) and are only mutated by
    *training-mode* forward passes, which — like all gradient work — remain
    a single-context affair.  Inference-mode forwards only read them and
    are fully reentrant.
    """

    def __init__(
        self,
        momentum: float = 0.9,
        epsilon: float = 1e-5,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        super().build(input_shape, rng)
        channels = input_shape[0]
        self.gamma = self.add_parameter("gamma", np.ones(channels))
        self.beta = self.add_parameter("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    # ------------------------------------------------------------------ #
    def _reshape_stats(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 4:
            return stat[None, :, None, None]
        return stat[None, :]

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        axes = (0, 2, 3) if x.ndim == 4 else (0,)

        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var

        mean_b = self._reshape_stats(mean, x.ndim)
        var_b = self._reshape_stats(var, x.ndim)
        inv_std = 1.0 / np.sqrt(var_b + self.epsilon)
        x_hat = (x - mean_b) * inv_std

        gamma_b = self._reshape_stats(self.gamma.value, x.ndim)
        beta_b = self._reshape_stats(self.beta.value, x.ndim)
        out = gamma_b * x_hat + beta_b

        self._ctx(ctx).save(self, (x_hat, inv_std, axes, x.ndim))
        return out

    def normalize_(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode :meth:`forward`, in place on ``x``; saves nothing.

        For callers that own ``x`` (a GEMM output nobody else has seen) and
        will never run a backward pass.  Besides ``(N, C, H, W)`` and
        ``(N, F)`` inputs this serves the channels-last ``(N·H·W, C)``
        matrix a convolution's GEMM produces.  The result is bit-identical
        to ``forward(x, training=False)``: the same four roundings in the
        same order — ``(x − mean) · inv_std``, then ``gamma · x̂ + beta``.
        Folding them into one scale and one shift would save two passes
        and change the last bit.
        """
        mean, var, gamma, beta = (
            self._reshape_stats(stat, x.ndim)
            for stat in (
                self.running_mean,
                self.running_var,
                self.gamma.value,
                self.beta.value,
            )
        )
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        np.subtract(x, mean, out=x)
        np.multiply(x, inv_std, out=x)
        np.multiply(gamma, x, out=x)
        return np.add(x, beta, out=x)

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        x_hat, inv_std, axes, ndim = self._ctx(ctx).saved(self)
        m = float(np.prod([grad_output.shape[a] for a in axes]))

        self.gamma.grad += (grad_output * x_hat).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)

        gamma_b = self._reshape_stats(self.gamma.value, ndim)
        grad_xhat = grad_output * gamma_b

        sum_grad = grad_xhat.sum(axis=axes, keepdims=True)
        sum_grad_xhat = (grad_xhat * x_hat).sum(axis=axes, keepdims=True)
        return inv_std * (grad_xhat - sum_grad / m - x_hat * sum_grad_xhat / m)

    def describe(self) -> dict:
        info = super().describe()
        info.update({"momentum": self.momentum, "epsilon": self.epsilon})
        return info
