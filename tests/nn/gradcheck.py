"""Numerical gradient checking helpers shared by the layer tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.layers.base import Layer


def numerical_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + epsilon
        plus = f(x)
        x[idx] = original - epsilon
        minus = f(x)
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * epsilon)
        it.iternext()
    return grad


def check_input_gradient(
    layer: Layer, x: np.ndarray, atol: float = 1e-6, training: bool = True
) -> None:
    """Assert that the layer's backward pass matches numerical differentiation.

    The scalar objective is a fixed random projection of the layer output, so
    the analytic input gradient is ``backward(projection)``.
    """
    rng = np.random.default_rng(123)
    out = layer.forward(x, training=training)
    projection = rng.normal(size=out.shape)

    def objective(inp: np.ndarray) -> float:
        return float(np.sum(layer.forward(inp, training=training) * projection))

    # re-run forward to refresh the cache, then take the analytic gradient
    layer.forward(x, training=training)
    analytic = layer.backward(projection)
    numeric = numerical_gradient(objective, x.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


def check_parameter_gradients(
    layer: Layer, x: np.ndarray, atol: float = 1e-6, training: bool = True
) -> None:
    """Assert that parameter gradients match numerical differentiation."""
    rng = np.random.default_rng(321)
    out = layer.forward(x, training=training)
    projection = rng.normal(size=out.shape)

    for param in layer.parameters():
        param.zero_grad()
    layer.forward(x, training=training)
    layer.backward(projection)

    for param in layer.parameters():
        analytic = param.grad.copy()

        def objective(values: np.ndarray) -> float:
            param.value[...] = values
            return float(np.sum(layer.forward(x, training=training) * projection))

        numeric = numerical_gradient(objective, param.value.copy())
        np.testing.assert_allclose(
            analytic,
            numeric,
            atol=atol,
            rtol=1e-4,
            err_msg=f"gradient mismatch for parameter {param.name}",
        )
