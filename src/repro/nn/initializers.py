"""Weight initialization: He-normal weights and zero biases.

Layers draw their weights from a seeded :class:`numpy.random.Generator`,
so a network built twice from one seed has identical parameters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "zeros"]


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-normal weights of a dense ``(in, out)`` or a conv weight shape.

    A conv shape is ``(out_c, in_c, kh, kw)``; its fan-in is ``in_c * kh * kw``.
    """
    fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
    return rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros float64 array (biases); draws nothing from any stream."""
    return np.zeros(shape, dtype=np.float64)
