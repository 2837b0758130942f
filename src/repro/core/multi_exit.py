"""Multi-exit machinery: exit heads, the exit ensemble, the early-exit result.

An *exit head* is a small classifier attached to an intermediate backbone
activation.  The paper places one exit after each semantic block (Section
III) and forms an equally-weighted ensemble of the exit predictions; at
deployment time it can additionally use confidence-based early exiting
(Kaya et al., "shallow-deep networks") to stop computation as soon as an
exit is confident enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn.layers import Conv2D, Dense, Flatten, GlobalAvgPool2D, Layer, ReLU
from .mcd import insert_mcd_into_head

__all__ = [
    "ExitHeadConfig",
    "build_exit_head",
    "EarlyExitResult",
    "CONFIDENCE_THRESHOLDS",
    "DROPOUT_RATE_GRID",
]

#: Confidence thresholds searched in the paper's grid (Section V-B).
CONFIDENCE_THRESHOLDS: tuple[float, ...] = (
    0.1,
    0.15,
    0.25,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    0.95,
    0.99,
    0.999,
)

#: Dropout rates searched in the paper's grid (Section V-B).
DROPOUT_RATE_GRID: tuple[float, ...] = (0.125, 0.25, 0.375, 0.5)


@dataclass
class ExitHeadConfig:
    """Configuration of one exit head.

    Attributes
    ----------
    num_classes:
        Output dimensionality.
    conv_channels:
        When non-zero, the head starts with a 3x3 convolution of this many
        channels (adds capacity to early exits at a modest FLOP cost).
    mcd_layers:
        Number of MC-dropout layers inserted into the head, counted from the
        exit backwards (0 = non-Bayesian exit).
    dropout_rate:
        Bernoulli drop probability for the MCD layers.
    """

    num_classes: int
    conv_channels: int = 0
    mcd_layers: int = 1
    dropout_rate: float = 0.25


def build_exit_head(
    config: ExitHeadConfig,
    feature_shape: tuple[int, ...],
    name: str = "exit",
    seed: int | None = None,
    custom_layers: Sequence[Layer] | None = None,
) -> list[Layer]:
    """Create the (unbuilt) layers of an exit head.

    Parameters
    ----------
    feature_shape:
        Per-sample shape of the backbone activation the head attaches to:
        ``(C, H, W)`` for convolutional features or ``(F,)`` for flat ones.
    custom_layers:
        When given, these layers are used as the head body (e.g. the original
        architecture classifier for the final exit) and only the MCD
        insertion step is applied to them.
    """
    if custom_layers is not None:
        layers = list(custom_layers)
    elif len(feature_shape) == 3:
        layers = []
        if config.conv_channels > 0:
            layers.append(
                Conv2D(config.conv_channels, 3, padding=1, name=f"{name}_conv")
            )
            layers.append(ReLU(name=f"{name}_relu"))
        layers.append(GlobalAvgPool2D(name=f"{name}_gap"))
        layers.append(Dense(config.num_classes, name=f"{name}_classifier"))
    elif len(feature_shape) == 1:
        layers = [
            Flatten(name=f"{name}_flatten"),
            Dense(config.num_classes, name=f"{name}_classifier"),
        ]
    else:
        raise ValueError(f"unsupported feature shape {feature_shape}")

    return insert_mcd_into_head(
        layers,
        num_mcd_layers=config.mcd_layers,
        dropout_rate=config.dropout_rate,
        seed=seed,
        name_prefix=f"{name}_mcd",
    )


# --------------------------------------------------------------------------- #
# ensembling and early exiting
# --------------------------------------------------------------------------- #
@dataclass
class EarlyExitResult:
    """Outcome of confidence-based early exiting on a batch."""

    probs: np.ndarray
    exit_indices: np.ndarray
    threshold: float
    #: fraction of samples that left at each exit
    exit_distribution: np.ndarray

    def expected_flops(self, cumulative_exit_flops: Sequence[float]) -> float:
        """Average FLOPs per sample given the cumulative cost of reaching each exit."""
        costs = np.asarray(list(cumulative_exit_flops), dtype=np.float64)
        if costs.shape[0] != self.exit_distribution.shape[0]:
            raise ValueError("cost vector length must equal the number of exits")
        return float((costs * self.exit_distribution).sum())
