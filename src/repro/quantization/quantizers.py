"""Post-training quantization of networks.

This replaces the QKeras dependency of the original flow: weights are
mapped to fixed-point formats, and the quantization impact on accuracy can
be measured before the hardware design-space exploration commits to a
bitwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.model import Network
from .fixed_point import FixedPointFormat

__all__ = [
    "QuantizationConfig",
    "QuantizationResult",
    "quantize_network",
]


@dataclass
class QuantizationConfig:
    """Bitwidth configuration for a whole network.

    ``weight_bits`` is the default bitwidth; specific layers can be
    overridden via ``per_layer_weight_bits`` keyed by layer name (used by
    the co-exploration when mixing precisions).
    """

    weight_bits: int = 8
    per_layer_weight_bits: dict[str, int] = field(default_factory=dict)

    def weight_bits_for(self, layer_name: str) -> int:
        return self.per_layer_weight_bits.get(layer_name, self.weight_bits)


@dataclass
class QuantizationResult:
    """Outcome of quantizing a network."""

    config: QuantizationConfig
    weight_formats: dict[str, FixedPointFormat]
    weight_rmse: dict[str, float]


def quantize_network(
    network: Network,
    config: QuantizationConfig,
    in_place: bool = True,
) -> QuantizationResult:
    """Quantize every parameter of a built network to fixed point.

    Parameters
    ----------
    network:
        A built :class:`Network`; its parameters are overwritten with their
        quantized values when ``in_place`` is true.
    config:
        Bitwidth configuration.
    in_place:
        When false, parameter values are left untouched and only the error
        analysis is performed.
    """
    if not network.built:
        raise ValueError("network must be built before quantization")

    formats: dict[str, FixedPointFormat] = {}
    rmse: dict[str, float] = {}
    for param in network.parameters():
        layer_name = param.name.rsplit(".", 1)[0]
        bits = config.weight_bits_for(layer_name)
        max_abs = float(np.max(np.abs(param.value))) if param.size else 1.0
        fmt = FixedPointFormat.for_range(max_abs, bits)
        formats[param.name] = fmt
        rmse[param.name] = fmt.quantization_error(param.value)
        if in_place:
            # assign() bumps the parameter version, so activation caches
            # (repro.inference engines, the serving layer) see the mutation
            param.assign(fmt.quantize(param.value))
    return QuantizationResult(config=config, weight_formats=formats, weight_rmse=rmse)
