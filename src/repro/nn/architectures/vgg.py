"""VGG backbones (VGG-11 for the SVHN hardware study, VGG-19 for Table I).

The standard VGG configurations are described by a list of stage channel
counts and per-stage convolution counts; each stage ends with a max-pooling
layer, which is exactly the "semantic grouping" the paper uses to place exit
branches.
"""

from __future__ import annotations

from ..layers import BatchNorm, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from ..model import Network
from .common import BackboneSpec, scale_channels

__all__ = ["vgg_spec", "VGG_CONFIGS"]

#: (channels, number of conv layers) per stage for the standard VGG variants.
VGG_CONFIGS: dict[str, list[tuple[int, int]]] = {
    "vgg11": [(64, 1), (128, 1), (256, 2), (512, 2), (512, 2)],
    "vgg13": [(64, 2), (128, 2), (256, 2), (512, 2), (512, 2)],
    "vgg16": [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)],
    "vgg19": [(64, 2), (128, 2), (256, 4), (512, 4), (512, 4)],
}


def vgg_spec(
    variant: str = "vgg11",
    input_shape: tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    width_multiplier: float = 1.0,
    use_batchnorm: bool = True,
    max_stages: int | None = None,
) -> BackboneSpec:
    """Build a VGG backbone specification.

    Parameters
    ----------
    variant:
        One of ``"vgg11"``, ``"vgg13"``, ``"vgg16"``, ``"vgg19"``.
    width_multiplier:
        Scales every channel count (used by co-exploration and by the
        scaled-down laptop experiments).
    max_stages:
        Optionally truncate the network to its first ``max_stages`` stages;
        useful when the input resolution is small.
    """
    if variant not in VGG_CONFIGS:
        raise ValueError(
            f"unknown VGG variant {variant!r}; choose from {sorted(VGG_CONFIGS)}"
        )
    config = VGG_CONFIGS[variant]
    if max_stages is not None:
        if max_stages <= 0:
            raise ValueError("max_stages must be positive")
        config = config[:max_stages]

    # ensure the spatial size never collapses below 1x1 after pooling
    min_spatial = min(input_shape[1], input_shape[2])
    feasible_stages = 0
    size = min_spatial
    for _ in config:
        if size < 2:
            break
        size //= 2
        feasible_stages += 1
    config = config[:feasible_stages]
    if not config:
        raise ValueError(f"input shape {input_shape} is too small for {variant}")

    backbone = Network(name=f"{variant}_backbone")
    exit_points: list[int] = []
    for stage, (channels, n_convs) in enumerate(config):
        c = scale_channels(channels, width_multiplier)
        for i in range(n_convs):
            backbone.add(
                Conv2D(
                    c,
                    3,
                    padding=1,
                    use_bias=not use_batchnorm,
                    name=f"stage{stage}_conv{i}",
                )
            )
            if use_batchnorm:
                backbone.add(BatchNorm(name=f"stage{stage}_bn{i}"))
            backbone.add(ReLU(name=f"stage{stage}_relu{i}"))
        backbone.add(MaxPool2D(2, name=f"stage{stage}_pool"))
        exit_points.append(len(backbone.layers))

    hidden = scale_channels(512, width_multiplier)

    def final_head():
        return [
            Flatten(name="flatten"),
            Dense(hidden, name="fc1"),
            ReLU(name="fc1_relu"),
            Dense(num_classes, name="classifier"),
        ]

    return BackboneSpec(
        name=variant,
        backbone=backbone,
        exit_points=exit_points,
        input_shape=tuple(input_shape),
        num_classes=num_classes,
        final_head_factory=final_head,
        metadata={
            "width_multiplier": width_multiplier,
            "use_batchnorm": use_batchnorm,
            "stages": len(config),
        },
    )
