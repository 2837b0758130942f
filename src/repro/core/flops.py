"""FLOP accounting and the multi-exit sampling-cost model (Eq. 1–3).

The paper quantifies the benefit of multi-exit Monte-Carlo sampling with a
simple cost model: getting ``N_sample`` MC samples from a single-exit
BayesNN costs ``N_sample * (FLOP_main + FLOP_exit)`` (Eq. 1), while a
multi-exit network with ``N_exit`` exits only needs
``FLOP_main + N_sample / N_exit * FLOP_exit`` (Eq. 2) because the backbone
result is cached and every forward pass harvests one sample per exit.  The
reduction rate (Eq. 3) is the ratio of the two.

This module provides per-layer FLOP counting for the NumPy substrate plus
Eq. 2 and the reduction rate (Eq. 3, in closed form over ``alpha``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    MCDropout,
    ReLU,
    ResidualBlock,
)
from ..nn.model import Network

__all__ = [
    "layer_flops",
    "network_flops",
    "multi_exit_sampling_flops",
    "reduction_rate",
    "FlopBreakdown",
]


def _conv_flops(layer: Conv2D) -> int:
    out_c, out_h, out_w = layer.output_shape
    in_c = layer.input_shape[0]
    macs = out_c * out_h * out_w * in_c * layer.kernel_size * layer.kernel_size
    flops = 2 * macs
    if layer.use_bias:
        flops += out_c * out_h * out_w
    return flops


def _dense_flops(layer: Dense) -> int:
    in_features = layer.input_shape[0]
    flops = 2 * in_features * layer.units
    if layer.use_bias:
        flops += layer.units
    return flops


def layer_flops(layer: Layer) -> int:
    """Floating-point operations of one forward pass through ``layer``.

    The layer must be built (shapes known).  Element-wise layers count one
    FLOP per output element; normalisation counts two (scale and shift);
    pooling counts one per pooled input element.
    """
    if not layer.built:
        raise ValueError(f"layer {layer.name!r} must be built to count FLOPs")

    if isinstance(layer, ResidualBlock):
        total = sum(layer_flops(sub) for sub in layer.sublayers())
        # the residual addition itself
        total += _num_elements(layer.output_shape)
        return total
    if isinstance(layer, Conv2D):
        return _conv_flops(layer)
    if isinstance(layer, Dense):
        return _dense_flops(layer)
    if isinstance(layer, BatchNorm):
        return 2 * _num_elements(layer.output_shape)
    if isinstance(layer, ReLU):
        return _num_elements(layer.output_shape)
    if isinstance(layer, MCDropout):
        # mask multiply + scale
        return 2 * _num_elements(layer.output_shape)
    if isinstance(layer, (MaxPool2D, GlobalAvgPool2D)):
        return _num_elements(layer.input_shape)
    if isinstance(layer, Flatten):
        return 0
    # unknown layer types contribute nothing rather than failing, so that
    # user-defined layers do not break the analysis
    return 0


def _num_elements(shape: tuple[int, ...]) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


def network_flops(network: Network) -> int:
    """Total forward FLOPs of a built network."""
    if not network.built:
        raise ValueError("network must be built to count FLOPs")
    return sum(layer_flops(layer) for layer in network.layers)


@dataclass
class FlopBreakdown:
    """FLOPs of a multi-exit model split into backbone and per-exit parts."""

    backbone_flops: int
    exit_flops: list[int]

    @property
    def total_exit_flops(self) -> int:
        return sum(self.exit_flops)

    @property
    def alpha(self) -> float:
        """The paper's :math:`\\alpha = FLOP_{exit} / FLOP_{main}` ratio."""
        if self.backbone_flops == 0:
            raise ZeroDivisionError("backbone has zero FLOPs")
        return self.total_exit_flops / self.backbone_flops

    @property
    def num_exits(self) -> int:
        return len(self.exit_flops)

    def single_pass_flops(self) -> int:
        """FLOPs of one full forward pass through backbone and every exit."""
        return self.backbone_flops + self.total_exit_flops

    def mc_sampling_flops(self, num_samples: int) -> int:
        """FLOPs to obtain ``num_samples`` MC samples with backbone caching (Eq. 2)."""
        return multi_exit_sampling_flops(
            self.backbone_flops, self.total_exit_flops, num_samples, self.num_exits
        )


def multi_exit_sampling_flops(
    flops_main: float, flops_exit: float, num_samples: int, num_exits: int
) -> float:
    """Equation 2: cost of ``num_samples`` MC samples from an ``num_exits``-exit BayesNN.

    The backbone runs once per *batch of exits*; ``num_samples / num_exits``
    forward passes of the exit ensemble produce all samples.  Non-divisible
    sample counts round the number of passes up, matching the implementation
    (you cannot run a fractional pass).
    """
    _validate_counts(flops_main, flops_exit, num_samples, num_exits)
    import math

    passes = math.ceil(num_samples / num_exits)
    return flops_main + passes * flops_exit


def reduction_rate(alpha: float, num_samples: int, num_exits: int) -> float:
    """Equation 3: FLOP reduction of multi-exit over single-exit sampling.

    ``alpha`` is the exit-to-backbone FLOP ratio.  The idealised form of the
    paper assumes ``num_samples`` divisible by ``num_exits``; this function
    uses the same idealisation.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if num_samples <= 0 or num_exits <= 0:
        raise ValueError("num_samples and num_exits must be positive")
    return (1.0 + alpha) / (1.0 / num_samples + alpha / num_exits)


def _validate_counts(
    flops_main: float, flops_exit: float, num_samples: int, num_exits: int
) -> None:
    if flops_main < 0 or flops_exit < 0:
        raise ValueError("FLOP counts must be non-negative")
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if num_exits <= 0:
        raise ValueError("num_exits must be positive")
