"""HLS project generation (Phase 4).

:class:`HLSCodeGenerator` turns a hardware IR into a set of HLS C++ source
files plus a Vivado-HLS project script.  The generated code is not compiled
in this environment (no Vivado available); the tests instead check that the
emitted sources are structurally correct — every layer gets a kernel, the
MCD kernel matches Algorithm 1, the MC-engine dispatch matches the chosen
mapping, and the fixed-point typedefs match the co-explored bitwidth.
"""

from __future__ import annotations

from ...quantization.fixed_point import FixedPointFormat
from ..accelerator import AcceleratorModel
from . import templates
from .ir import HardwareIR, HWLayerNode

__all__ = ["HLSCodeGenerator"]


class HLSCodeGenerator:
    """Generate the HLS sources for one accelerator design."""

    def __init__(
        self, accel: AcceleratorModel, dropout_rate: float | None = None
    ) -> None:
        self.accel = accel
        self.ir = HardwareIR.from_accelerator(accel)
        self.ir.validate()
        if dropout_rate is None:
            dropout_rate = self._infer_dropout_rate()
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        self.dropout_rate = dropout_rate

    def _infer_dropout_rate(self) -> float:
        for node in self.ir.mcd_nodes():
            rate = node.params.get("rate")
            if rate is not None:
                return float(rate)
        return 0.25

    # ------------------------------------------------------------------ #
    # individual files
    # ------------------------------------------------------------------ #
    def parameters_header(self) -> str:
        bits = self.accel.config.weight_bitwidth
        fmt = FixedPointFormat(total_bits=bits, integer_bits=max(1, min(bits // 2, 8)))
        return templates.HEADER_TEMPLATE.format(
            device=self.accel.device.name,
            clock_mhz=self.accel.config.clock_mhz,
            total_bits=fmt.total_bits,
            integer_bits=fmt.integer_bits,
            accum_bits=min(48, fmt.total_bits * 2 + 4),
            accum_integer_bits=min(24, fmt.integer_bits * 2 + 4),
            guard="BAYESNN_PARAMETERS_H",
            reuse_factor=self.accel.config.reuse_factor,
            num_mc_samples=self.accel.mapping.num_samples,
            num_engines=self.accel.mapping.num_engines,
            dropout_rate=self.dropout_rate,
            keep_rate=1.0 - self.dropout_rate,
        )

    def mcd_header(self) -> str:
        """One Algorithm-1 kernel per MC-dropout layer."""
        chunks = ["#pragma once", '#include "parameters.h"', ""]
        for node in self.ir.mcd_nodes():
            chunks.append(
                templates.MCD_LAYER_TEMPLATE.format(
                    name=_sanitize(node.name),
                    keep_rate=1.0 - float(node.params.get("rate", self.dropout_rate)),
                )
            )
        if not self.ir.mcd_nodes():
            chunks.append("// (design has no MC-dropout layers)")
        return "\n".join(chunks)

    def layers_header(self) -> str:
        """Kernels for every non-MCD layer of the design."""
        chunks = ["#pragma once", '#include "parameters.h"', ""]
        for node in self.ir.nodes():
            code = self._emit_layer(node)
            if code:
                chunks.append(code)
        return "\n".join(chunks)

    def _emit_layer(self, node: HWLayerNode) -> str:
        name = _sanitize(node.name)
        reuse = self.accel.config.reuse_factor
        if node.kernel == "dense":
            in_size = node.input_size
            out_size = node.output_size
            return templates.DENSE_LAYER_TEMPLATE.format(
                name=name,
                in_size=in_size,
                out_size=out_size,
                reuse_factor=reuse,
                partition_factor=max(1, in_size // reuse),
            )
        if node.kernel == "conv2d":
            in_c, in_h, in_w = node.input_shape
            out_c, out_h, out_w = node.output_shape
            return templates.CONV_LAYER_TEMPLATE.format(
                name=name,
                in_channels=in_c,
                in_height=in_h,
                in_width=in_w,
                out_channels=out_c,
                out_height=out_h,
                out_width=out_w,
                kernel=node.params.get("kernel_size", 3),
                stride=node.params.get("stride", 1),
                padding=node.params.get("padding", 0),
                reuse_factor=reuse,
            )
        if node.kernel == "maxpool2d":
            in_c, in_h, in_w = node.input_shape
            out_c, out_h, out_w = node.output_shape
            return templates.POOLING_LAYER_TEMPLATE.format(
                name=name,
                channels=in_c,
                in_height=in_h,
                in_width=in_w,
                out_height=out_h,
                out_width=out_w,
                pool_size=node.params.get("pool_size", 2),
            )
        if node.kernel == "relu":
            return templates.RELU_LAYER_TEMPLATE.format(name=name)
        if node.kernel == "mc_dropout":
            return ""  # emitted in mcd_header
        # batchnorm, flatten, residual blocks etc. are folded or
        # handled inside composite kernels; emit a comment as documentation.
        return f"// kernel '{node.kernel}' for layer {name} is folded into the adjacent kernels\n"

    def top_source(self) -> str:
        mapping = self.accel.mapping
        if mapping.strategy == "spatial":
            dispatch = templates.MC_ENGINE_SPATIAL_TEMPLATE.format(
                num_engines=mapping.num_engines
            )
        else:
            dispatch = templates.MC_ENGINE_TEMPORAL_TEMPLATE.format(
                passes_per_engine=mapping.passes_per_engine
            )

        nodes = self.ir.nodes()
        input_size = nodes[0].input_size if nodes else 1
        output_size = nodes[-1].output_size if nodes else 1
        det_nodes = self.ir.deterministic_nodes()
        cache_size = det_nodes[-1].output_size if det_nodes else input_size
        lfsr_seeds = ", ".join(
            str(0xACE1 + 977 * i) for i in range(mapping.num_engines)
        )
        return templates.TOP_FUNCTION_TEMPLATE.format(
            model_name=self.accel.name,
            num_deterministic=len(det_nodes),
            num_bayesian=len(self.ir.bayesian_nodes()),
            num_mcd=len(self.ir.mcd_nodes()),
            mapping_strategy=mapping.strategy,
            num_engines=mapping.num_engines,
            passes_per_engine=mapping.passes_per_engine,
            top_name=_sanitize(self.accel.name),
            input_size=input_size,
            output_size=output_size,
            num_outputs=mapping.num_samples,
            cache_size=cache_size,
            lfsr_seeds=lfsr_seeds,
            mc_dispatch=dispatch,
        )

    def build_script(self) -> str:
        return templates.BUILD_TCL_TEMPLATE.format(
            project_name=f"{_sanitize(self.accel.name)}_prj",
            top_name=_sanitize(self.accel.name),
            part=_part_for_device(self.accel.device.name),
            clock_period_ns=1000.0 / self.accel.config.clock_mhz,
        )

    # ------------------------------------------------------------------ #
    def generate(self) -> dict[str, str]:
        """All project files as a ``{filename: content}`` mapping."""
        return {
            "parameters.h": self.parameters_header(),
            "mcd_layers.h": self.mcd_header(),
            "layers.h": self.layers_header(),
            "top.cpp": self.top_source(),
            "build_prj.tcl": self.build_script(),
        }


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


#: Vivado part of each catalogued Xilinx device (``FPGADevice.name`` keys)
_VIVADO_PARTS = {
    "XCKU115": "xcku115-flvb2104-2-e",
    "XC7Z020": "xc7z020clg400-1",
    "ZCU102 (XCZU9EG)": "xczu9eg-ffvb1156-2-e",
}


def _part_for_device(device_name: str) -> str:
    """The Vivado part ``build_prj.tcl`` targets; other vendors' devices raise."""
    try:
        return _VIVADO_PARTS[device_name]
    except KeyError:
        raise ValueError(
            f"no Vivado part for device {device_name!r}; the HLS build script "
            f"can target {sorted(_VIVADO_PARTS)}"
        ) from None
