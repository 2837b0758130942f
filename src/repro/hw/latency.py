"""Latency model for HLS dataflow accelerators.

Each layer is modelled as a pipelined loop whose initiation interval is set
by the reuse factor: the layer produces one output "bundle" every
``reuse_factor`` cycles, plus a fixed pipeline-fill depth.  The latency of
a chain of layers is the sum of its stages' latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LayerLatency", "LatencyModel", "estimate_layer_cycles"]


@dataclass
class LayerLatency:
    """Cycle counts of one layer."""

    name: str
    cycles: int
    pipeline_depth: int

    @property
    def total_cycles(self) -> int:
        return self.cycles + self.pipeline_depth


def estimate_layer_cycles(
    layer_desc: dict,
    reuse_factor: int = 1,
    unroll_limit: int | None = None,
) -> LayerLatency:
    """Estimate the cycle count of one layer from its description.

    The model charges ``reuse_factor`` cycles per output pixel/neuron for
    multiply-accumulate layers (the inner products are unrolled across the
    parallel multipliers counted by the resource model) and one cycle per
    element for element-wise and pooling layers.
    """
    if reuse_factor <= 0:
        raise ValueError("reuse_factor must be positive")
    ltype = layer_desc["type"]
    out_shape = layer_desc.get("output_shape") or []
    in_shape = layer_desc.get("input_shape") or []
    out_elements = _prod(out_shape)
    name = layer_desc.get("name", ltype)

    if ltype == "ResidualBlock":
        cycles = 0
        depth = 0
        for sub in layer_desc.get("sublayers", []):
            sub_lat = estimate_layer_cycles(sub, reuse_factor, unroll_limit)
            cycles += sub_lat.cycles
            depth += sub_lat.pipeline_depth
        return LayerLatency(name=name, cycles=cycles, pipeline_depth=depth)

    if ltype == "Conv2D":
        out_c, out_h, out_w = out_shape
        pixels = out_h * out_w
        cycles = pixels * reuse_factor
        depth = 8 + int(math.log2(max(2, in_shape[0] * layer_desc["kernel_size"] ** 2)))
        return LayerLatency(name=name, cycles=cycles, pipeline_depth=depth)

    if ltype == "Dense":
        cycles = max(1, reuse_factor)
        depth = 4 + int(math.log2(max(2, in_shape[0])))
        return LayerLatency(name=name, cycles=cycles, pipeline_depth=depth)

    if ltype == "BatchNorm":
        channels = out_shape[0] if out_shape else 1
        spatial = out_elements // max(1, channels)
        return LayerLatency(name=name, cycles=max(1, spatial), pipeline_depth=3)

    if ltype == "MCDropout":
        # Algorithm 1: a single pipelined loop over dropout_size elements
        return LayerLatency(name=name, cycles=max(1, out_elements), pipeline_depth=3)

    if ltype == "MaxPool2D":
        return LayerLatency(name=name, cycles=max(1, out_elements), pipeline_depth=2)

    if ltype == "GlobalAvgPool2D":
        return LayerLatency(name=name, cycles=max(1, _prod(in_shape)), pipeline_depth=4)

    if ltype == "ReLU":
        channels = out_shape[-1] if out_shape else 1
        return LayerLatency(
            name=name, cycles=max(1, out_elements // max(1, channels)), pipeline_depth=2
        )

    if ltype == "Flatten":
        return LayerLatency(name=name, cycles=1, pipeline_depth=1)

    return LayerLatency(name=name, cycles=max(1, out_elements), pipeline_depth=2)


@dataclass
class LatencyModel:
    """Compose per-layer cycle counts into an end-to-end latency.

    Parameters
    ----------
    clock_mhz:
        Accelerator clock frequency.
    """

    clock_mhz: float = 181.0

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ValueError("clock frequency must be positive")

    @property
    def cycle_time_us(self) -> float:
        return 1.0 / self.clock_mhz

    def chain_cycles(self, latencies: list[LayerLatency]) -> int:
        """Latency in cycles of a chain of layers: the sum of its stages."""
        return sum(lat.total_cycles for lat in latencies)

    def cycles_to_ms(self, cycles: int) -> float:
        return cycles * self.cycle_time_us / 1000.0


def _prod(shape) -> int:
    n = 1
    for s in shape or []:
        n *= int(s)
    return n
