"""The ReLU layer and the softmax functions of the output head."""

from __future__ import annotations

import numpy as np

from ..context import ForwardContext
from .base import Layer

__all__ = ["ReLU", "relu_", "softmax", "log_softmax"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def relu_(x: np.ndarray) -> np.ndarray:
    """:class:`ReLU`'s forward, in place on ``x``; saves nothing.

    ``x · (x > 0)`` like the layer, not ``maximum(x, 0)``: a negative input
    yields ``-0.0`` under the former and ``+0.0`` under the latter.
    """
    return np.multiply(x, x > 0, out=x)


class ReLU(Layer):
    """Rectified linear activation."""

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        mask = x > 0
        self._ctx(ctx).save(self, mask)
        return x * mask

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        return grad_output * self._ctx(ctx).saved(self)

