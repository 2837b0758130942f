"""Fixed-point number formats (``ap_fixed<W, I>`` semantics).

The hardware co-exploration of the paper searches weight/activation
bitwidths in {4, 6, 8, 16}.  This module models signed fixed-point formats
with the same semantics as Vivado-HLS ``ap_fixed``: ``total_bits`` bits in
total, of which ``integer_bits`` (including the sign) are above the binary
point, with round-to-nearest and saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPointFormat", "STANDARD_BITWIDTHS"]

#: Bitwidths explored by the algorithm–hardware co-exploration (Section IV-D).
STANDARD_BITWIDTHS: tuple[int, ...] = (4, 6, 8, 16)


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed fixed-point format ``ap_fixed<total_bits, integer_bits>``."""

    total_bits: int
    integer_bits: int

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError("total_bits must be at least 2 (sign + 1 data bit)")
        if not 1 <= self.integer_bits <= self.total_bits:
            raise ValueError(
                "integer_bits must be between 1 and total_bits "
                f"(got {self.integer_bits} of {self.total_bits})"
            )

    # ------------------------------------------------------------------ #
    @property
    def fractional_bits(self) -> int:
        return self.total_bits - self.integer_bits

    @property
    def resolution(self) -> float:
        """Smallest representable step."""
        return 2.0 ** (-self.fractional_bits)

    @property
    def max_value(self) -> float:
        return 2.0 ** (self.integer_bits - 1) - self.resolution

    @property
    def min_value(self) -> float:
        return -(2.0 ** (self.integer_bits - 1))

    # ------------------------------------------------------------------ #
    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Round-to-nearest quantization with saturation."""
        arr = np.asarray(values, dtype=np.float64)
        scaled = np.round(arr / self.resolution) * self.resolution
        return np.clip(scaled, self.min_value, self.max_value)

    def quantization_error(self, values: np.ndarray) -> float:
        """Root-mean-square error introduced by quantizing ``values``."""
        arr = np.asarray(values, dtype=np.float64)
        return float(np.sqrt(np.mean((arr - self.quantize(arr)) ** 2)))

    @classmethod
    def for_range(cls, max_abs: float, total_bits: int) -> "FixedPointFormat":
        """Choose integer bits so that ``[-max_abs, max_abs]`` is representable."""
        if max_abs <= 0:
            integer_bits = 1
        else:
            integer_bits = int(np.ceil(np.log2(max_abs + 1e-12))) + 1
            integer_bits = max(1, min(integer_bits, total_bits))
        return cls(total_bits=total_bits, integer_bits=integer_bits)

    def __str__(self) -> str:
        return f"ap_fixed<{self.total_bits},{self.integer_bits}>"
