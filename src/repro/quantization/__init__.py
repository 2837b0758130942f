"""Fixed-point quantization (QKeras stand-in)."""

from .fixed_point import STANDARD_BITWIDTHS, FixedPointFormat
from .quantizers import (
    QuantizationConfig,
    QuantizationResult,
    quantize_network,
)

__all__ = [
    "STANDARD_BITWIDTHS",
    "FixedPointFormat",
    "QuantizationConfig",
    "QuantizationResult",
    "quantize_network",
]
