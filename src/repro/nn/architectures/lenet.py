"""LeNet-5 backbone (used for the MNIST / Bayes-LeNet hardware experiments)."""

from __future__ import annotations

from functools import partial

from ..layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from ..layers.base import Layer
from .common import BackboneSpec, scale_channels

__all__ = ["lenet5_spec"]


def _backbone(c1: int, c2: int) -> list[Layer]:
    return [
        Conv2D(c1, kernel_size=5, padding=2, name="conv1"),
        ReLU(name="relu1"),
        MaxPool2D(2, name="pool1"),
        # ---- end of block 1
        Conv2D(c2, kernel_size=5, padding=0, name="conv2"),
        ReLU(name="relu2"),
        MaxPool2D(2, name="pool2"),
        # ---- end of block 2
    ]


def _final_head(f1: int, f2: int, num_classes: int) -> list[Layer]:
    return [
        Flatten(name="flatten"),
        Dense(f1, name="fc1"),
        ReLU(name="fc1_relu"),
        Dense(f2, name="fc2"),
        ReLU(name="fc2_relu"),
        Dense(num_classes, name="classifier"),
    ]


def lenet5_spec(
    input_shape: tuple[int, int, int] = (1, 28, 28),
    num_classes: int = 10,
    width_multiplier: float = 1.0,
) -> BackboneSpec:
    """Build a LeNet-5 backbone specification.

    The classic LeNet-5 topology (conv 6 → pool → conv 16 → pool) with the
    two fully-connected layers (120 → 84 → classes) as the classifier head.
    Blocks are separated by the pooling layers, giving two exit points.
    """
    return BackboneSpec(
        name="lenet5",
        backbone_factory=partial(
            _backbone,
            scale_channels(6, width_multiplier),
            scale_channels(16, width_multiplier),
        ),
        exit_points=[3, 6],
        input_shape=tuple(input_shape),
        num_classes=num_classes,
        final_head_factory=partial(
            _final_head,
            scale_channels(120, width_multiplier),
            scale_channels(84, width_multiplier),
            num_classes,
        ),
    )
