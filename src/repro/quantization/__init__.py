"""Fixed-point quantization (QKeras stand-in)."""

from .fixed_point import STANDARD_BITWIDTHS, FixedPointFormat
from .quantizers import (
    QuantizationConfig,
    QuantizationResult,
    activation_formats,
    quantize_network,
)

__all__ = [
    "STANDARD_BITWIDTHS",
    "FixedPointFormat",
    "QuantizationConfig",
    "QuantizationResult",
    "quantize_network",
    "activation_formats",
]
