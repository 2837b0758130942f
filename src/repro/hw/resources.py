"""FPGA resource usage model.

The resource estimator follows the cost structure of hls4ml-style dataflow
accelerators:

* every layer is unrolled into ``n_mult / reuse_factor`` parallel multipliers;
  multipliers wider than the DSP threshold map to DSP slices, narrow ones to
  LUT fabric;
* weights are held on-chip; each partition of the weight array occupies BRAM
  (or LUT-RAM when tiny);
* pipeline registers and control contribute FF/LUT proportional to the
  datapath width and unroll factor;
* the Monte-Carlo-dropout layer (Algorithm 1 of the paper) needs an LFSR
  random-number generator, a comparator and a multiplier per parallel lane —
  logic only, **no BRAM**, which is why the paper's Figure 5 shows flat BRAM
  as the number of MCD layers grows.

The estimator works from layer *descriptions* (dicts produced by
``Layer.describe()``), so a hardware estimate never requires allocating the
actual NumPy weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .devices import FPGADevice

__all__ = ["ResourceUsage", "LayerResourceModel", "estimate_layer_resources"]

#: multiplications at most this wide are implemented in LUTs instead of DSPs
DSP_BITWIDTH_THRESHOLD = 9
#: usable bits per 18 Kbit BRAM unit
BRAM_BITS = 18 * 1024


@dataclass
class ResourceUsage:
    """BRAM / DSP / FF / LUT consumption of a design or design fragment."""

    bram_18k: float = 0.0
    dsp: float = 0.0
    ff: float = 0.0
    lut: float = 0.0

    # ------------------------------------------------------------------ #
    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            bram_18k=self.bram_18k + other.bram_18k,
            dsp=self.dsp + other.dsp,
            ff=self.ff + other.ff,
            lut=self.lut + other.lut,
        )

    def __mul__(self, factor: float) -> "ResourceUsage":
        if factor < 0:
            raise ValueError("resource scaling factor must be non-negative")
        return ResourceUsage(
            bram_18k=self.bram_18k * factor,
            dsp=self.dsp * factor,
            ff=self.ff * factor,
            lut=self.lut * factor,
        )

    __rmul__ = __mul__

    def as_dict(self) -> dict[str, float]:
        return {
            "bram_18k": self.bram_18k,
            "dsp": self.dsp,
            "ff": self.ff,
            "lut": self.lut,
        }

    def utilization(self, device: FPGADevice) -> dict[str, float]:
        """Fractional utilization of each resource class on ``device``."""
        capacity = device.resource_capacity()
        return {
            key: (value / capacity[key] if capacity[key] else 0.0)
            for key, value in self.as_dict().items()
        }

    def fits(self, device: FPGADevice, margin: float = 1.0) -> bool:
        """Whether the design fits within ``margin`` of the device capacity."""
        if margin <= 0:
            raise ValueError("margin must be positive")
        return all(u <= margin for u in self.utilization(device).values())

    def max_utilization(self, device: FPGADevice) -> float:
        return max(self.utilization(device).values())


@dataclass
class LayerResourceModel:
    """Knobs of the per-layer resource estimator.

    ``lut_per_narrow_mult`` etc. are calibration constants chosen to land in
    the range reported by hls4ml / the paper for small CNN accelerators; the
    experiments only rely on relative trends, not on the absolute values.
    """

    lut_per_narrow_mult: float = 45.0
    lut_per_adder_bit: float = 1.0
    ff_per_pipeline_bit: float = 2.0
    lut_control_per_layer: float = 300.0
    ff_control_per_layer: float = 250.0
    lut_per_rng: float = 120.0
    ff_per_rng: float = 96.0
    lut_per_comparator_bit: float = 1.5


def _weights_bram(num_weights: int, bitwidth: int, partitions: int) -> float:
    """BRAM blocks needed to hold a weight array split into ``partitions``.

    Each partition must live in its own BRAM so the parallel multipliers can
    read concurrently, but HLS packs small partitions together and maps tiny
    arrays to LUT-RAM; the model approximates that by charging the larger of
    the pure-capacity count and a bandwidth term that grows slowly with the
    partition count.
    """
    if num_weights == 0:
        return 0.0
    total_bits = num_weights * bitwidth
    # arrays below the LUT-RAM threshold never use BRAM
    if total_bits <= 2048:
        return 0.0
    capacity_brams = math.ceil(total_bits / BRAM_BITS)
    bandwidth_brams = math.ceil(max(1, partitions) / 16)
    return float(max(capacity_brams, bandwidth_brams))


def estimate_layer_resources(
    layer_desc: dict,
    bitwidth: int = 16,
    reuse_factor: int = 1,
    model: LayerResourceModel | None = None,
) -> ResourceUsage:
    """Estimate the resources of one layer from its description.

    Parameters
    ----------
    layer_desc:
        Dict produced by ``Layer.describe()``; must contain ``type``,
        ``input_shape`` and ``output_shape`` (and layer-specific fields such
        as ``filters`` / ``kernel_size`` / ``units``).
    bitwidth:
        Datapath width for weights and activations.
    reuse_factor:
        hls4ml-style time-multiplexing factor; larger values use fewer
        multipliers at the cost of more cycles.
    """
    if bitwidth <= 0:
        raise ValueError("bitwidth must be positive")
    if reuse_factor <= 0:
        raise ValueError("reuse_factor must be positive")
    model = model or LayerResourceModel()
    ltype = layer_desc["type"]
    in_shape = layer_desc.get("input_shape") or []
    out_shape = layer_desc.get("output_shape") or []
    out_elements = _prod(out_shape)

    if ltype == "ResidualBlock":
        total = ResourceUsage()
        for sub in layer_desc.get("sublayers", []):
            total = total + estimate_layer_resources(sub, bitwidth, reuse_factor, model)
        # the elementwise residual adder
        total = total + ResourceUsage(
            lut=model.lut_per_adder_bit
            * bitwidth
            * max(1, out_shape[0] if out_shape else 1)
        )
        return total

    if ltype == "Conv2D":
        in_c = in_shape[0]
        kernel = layer_desc["kernel_size"]
        filters = layer_desc["filters"]
        mults = in_c * kernel * kernel * filters
        weights = mults + (filters if layer_desc.get("use_bias", True) else 0)
        return _mac_layer_resources(mults, weights, bitwidth, reuse_factor, model)

    if ltype == "Dense":
        in_f = in_shape[0]
        units = layer_desc["units"]
        mults = in_f * units
        weights = mults + (units if layer_desc.get("use_bias", True) else 0)
        return _mac_layer_resources(mults, weights, bitwidth, reuse_factor, model)

    if ltype == "BatchNorm":
        channels = in_shape[0] if in_shape else 1
        mults = channels
        weights = 2 * channels
        return _mac_layer_resources(mults, weights, bitwidth, reuse_factor, model)

    if ltype == "MCDropout":
        # Algorithm 1: one RNG, one comparator and one multiplier per parallel
        # lane; lanes = channels / reuse_factor.  No BRAM at all.
        channels = in_shape[0] if in_shape else 1
        lanes = max(1, math.ceil(channels / reuse_factor))
        lut = lanes * (
            model.lut_per_rng
            + model.lut_per_comparator_bit * bitwidth
            + model.lut_per_narrow_mult * (bitwidth / 8.0)
        )
        ff = lanes * (model.ff_per_rng + model.ff_per_pipeline_bit * bitwidth)
        dsp = 0.0
        if bitwidth > DSP_BITWIDTH_THRESHOLD:
            dsp = lanes  # the keep-rate scaling multiplier
            lut -= lanes * model.lut_per_narrow_mult * (bitwidth / 8.0)
        return ResourceUsage(
            bram_18k=0.0,
            dsp=dsp,
            ff=ff + model.ff_control_per_layer,
            lut=lut + model.lut_control_per_layer,
        )

    if ltype in ("MaxPool2D", "GlobalAvgPool2D"):
        channels = in_shape[0] if in_shape else 1
        lanes = max(1, math.ceil(channels / reuse_factor))
        lut = lanes * model.lut_per_comparator_bit * bitwidth * 4
        ff = lanes * model.ff_per_pipeline_bit * bitwidth
        return ResourceUsage(
            lut=lut + model.lut_control_per_layer,
            ff=ff + model.ff_control_per_layer,
        )

    if ltype in ("ReLU", "Flatten"):
        width = bitwidth * max(1, min(out_elements, 64))
        return ResourceUsage(
            lut=model.lut_per_adder_bit * width + model.lut_control_per_layer / 2,
            ff=model.ff_per_pipeline_bit * width,
        )

    # unknown layers: small fixed control overhead
    return ResourceUsage(lut=model.lut_control_per_layer, ff=model.ff_control_per_layer)


def _mac_layer_resources(
    mults: int,
    weights: int,
    bitwidth: int,
    reuse_factor: int,
    model: LayerResourceModel,
) -> ResourceUsage:
    """Resources of a multiply-accumulate layer (conv / dense / batchnorm)."""
    parallel_mults = max(1, math.ceil(mults / reuse_factor))
    if bitwidth > DSP_BITWIDTH_THRESHOLD:
        dsp = float(parallel_mults)
        lut_mult = 0.0
    else:
        dsp = 0.0
        lut_mult = parallel_mults * model.lut_per_narrow_mult * (bitwidth / 8.0) ** 2

    accumulation_lut = parallel_mults * model.lut_per_adder_bit * bitwidth
    pipeline_ff = parallel_mults * model.ff_per_pipeline_bit * bitwidth * 2
    bram = _weights_bram(
        weights, bitwidth, partitions=parallel_mults if reuse_factor > 1 else 1
    )

    return ResourceUsage(
        bram_18k=bram,
        dsp=dsp,
        ff=pipeline_ff + model.ff_control_per_layer,
        lut=lut_mult + accumulation_lut + model.lut_control_per_layer,
    )


def _prod(shape) -> int:
    n = 1
    for s in shape or []:
        n *= int(s)
    return n
