"""Shared representation of backbone architectures.

A :class:`BackboneSpec` describes a convolutional backbone together with the
*exit points* where intermediate classifiers may be attached.  Following the
paper (Section III), exit points are chosen by semantic grouping: the network
is split into "blocks" separated by pooling layers (or, for ResNet, stages of
residual blocks), and one exit can be attached after each block.

The spec owns no layers.  It holds two zero-argument factories (backbone
layers and final-head layers) and every model built from it — single-exit,
flat MC-dropout or multi-exit — calls them for fresh, unbuilt layers.  So one
spec builds any number of models that share no parameter, and it pickles
whenever its factories do (the architecture modules bind module-level
layer-list functions with :func:`functools.partial`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..layers.base import Layer

__all__ = ["BackboneSpec", "scale_channels"]


def scale_channels(channels: int, multiplier: float, minimum: int = 4) -> int:
    """Scale a channel count, keeping it a positive integer.

    Used both to shrink models for the laptop-scale experiments and by the
    algorithm–hardware co-exploration, which searches channel counts in
    ``{C, C/2, C/4, C/8}``.
    """
    if channels <= 0:
        raise ValueError("channels must be positive")
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    return max(minimum, int(round(channels * multiplier)))


@dataclass
class BackboneSpec:
    """How to make a backbone and its classifier head, plus the exit points.

    Attributes
    ----------
    name:
        Human-readable architecture name (e.g. ``"resnet18"``).
    backbone_factory:
        Zero-argument callable returning the unbuilt layers of the feature
        extractor (no classifier head).
    exit_points:
        Layer indices ``p`` such that ``backbone.forward_range(x, 0, p)`` is
        the activation fed to exit ``i``.  The last entry always equals the
        number of backbone layers (the final exit uses the full backbone).
    input_shape:
        Per-sample input shape ``(C, H, W)``.
    num_classes:
        Number of output classes.
    final_head_factory:
        Zero-argument callable returning the unbuilt layers of the
        architecture's original classifier head.
    """

    name: str
    backbone_factory: Callable[[], list[Layer]]
    exit_points: list[int]
    input_shape: tuple[int, int, int]
    num_classes: int
    final_head_factory: Callable[[], list[Layer]]

    def __post_init__(self) -> None:
        if not self.exit_points:
            raise ValueError("exit_points must not be empty")
        if sorted(self.exit_points) != list(self.exit_points):
            raise ValueError("exit_points must be increasing")
        depth = len(self.backbone_factory())
        if self.exit_points[-1] != depth:
            raise ValueError(
                "the last exit point must be the end of the backbone "
                f"({depth}), got {self.exit_points[-1]}"
            )

    @property
    def num_blocks(self) -> int:
        """Number of semantic blocks (= maximum number of exits)."""
        return len(self.exit_points)
