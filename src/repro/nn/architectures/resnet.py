"""ResNet backbones (ResNet-18 for the CIFAR experiments of Table I).

The CIFAR-style ResNet-18 keeps the 3x3 stem (no initial max pooling) and has
four stages of two basic residual blocks each.  Each stage is a semantic
block of the paper's exit-placement scheme, giving four exit points.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate

from ..layers import BatchNorm, Conv2D, Dense, GlobalAvgPool2D, ReLU, ResidualBlock
from ..layers.base import Layer
from .common import BackboneSpec, scale_channels

__all__ = ["resnet_spec", "RESNET_CONFIGS"]

#: (channels, number of residual blocks, first-block stride) per stage.
RESNET_CONFIGS: dict[str, list[tuple[int, int, int]]] = {
    "resnet10": [(64, 1, 1), (128, 1, 2), (256, 1, 2), (512, 1, 2)],
    "resnet18": [(64, 2, 1), (128, 2, 2), (256, 2, 2), (512, 2, 2)],
    "resnet34": [(64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2)],
}


def _backbone(
    config: list[tuple[int, int, int]], width_multiplier: float, use_batchnorm: bool
) -> list[Layer]:
    stem = scale_channels(64, width_multiplier)
    layers: list[Layer] = [
        Conv2D(stem, 3, padding=1, use_bias=not use_batchnorm, name="stem_conv")
    ]
    if use_batchnorm:
        layers.append(BatchNorm(name="stem_bn"))
    layers.append(ReLU(name="stem_relu"))
    for stage, (channels, n_blocks, first_stride) in enumerate(config):
        c = scale_channels(channels, width_multiplier)
        layers.extend(
            ResidualBlock(
                c,
                stride=first_stride if block == 0 else 1,
                use_batchnorm=use_batchnorm,
                name=f"stage{stage}_block{block}",
            )
            for block in range(n_blocks)
        )
    return layers


def _final_head(num_classes: int) -> list[Layer]:
    return [
        GlobalAvgPool2D(name="global_pool"),
        Dense(num_classes, name="classifier"),
    ]


def resnet_spec(
    variant: str = "resnet18",
    input_shape: tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    width_multiplier: float = 1.0,
    use_batchnorm: bool = True,
    max_stages: int | None = None,
) -> BackboneSpec:
    """Build a ResNet backbone specification."""
    if variant not in RESNET_CONFIGS:
        raise ValueError(
            f"unknown ResNet variant {variant!r}; choose from {sorted(RESNET_CONFIGS)}"
        )
    config = RESNET_CONFIGS[variant]
    if max_stages is not None:
        if max_stages <= 0:
            raise ValueError("max_stages must be positive")
        config = config[:max_stages]

    # the stem (conv [+ bn] + relu), then one exit after each stage's blocks
    stem_layers = 3 if use_batchnorm else 2
    exit_points = list(accumulate((n for _, n, _ in config), initial=stem_layers))[1:]
    return BackboneSpec(
        name=variant,
        backbone_factory=partial(_backbone, config, width_multiplier, use_batchnorm),
        exit_points=exit_points,
        input_shape=tuple(input_shape),
        num_classes=num_classes,
        final_head_factory=partial(_final_head, num_classes),
    )
