"""Synthesis-report generation.

The original flow reads latency and resource figures from Vivado-HLS
C-synthesis reports and power from the Xilinx Power Estimator.  This module
produces the equivalent structured report from the analytical models so that
benchmarks and examples can print a familiar-looking summary and the
experiment harness can archive machine-readable results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accelerator import AcceleratorModel

__all__ = ["SynthesisReport"]


@dataclass
class SynthesisReport:
    """A Vivado-HLS-style report assembled from the analytical models."""

    design_name: str
    device: str
    clock_mhz: float
    bitwidth: int
    reuse_factor: int
    mapping: dict
    num_mcd_layers: int
    latency_cycles: int
    latency_ms: float
    resources: dict[str, float]
    utilization: dict[str, float]
    power_w: dict[str, float]
    energy_per_image_j: float

    # ------------------------------------------------------------------ #
    @classmethod
    def from_accelerator(cls, accel: AcceleratorModel) -> "SynthesisReport":
        summary = accel.summary()
        return cls(
            design_name=summary["name"],
            device=summary["device"],
            clock_mhz=summary["clock_mhz"],
            bitwidth=summary["bitwidth"],
            reuse_factor=summary["reuse_factor"],
            mapping=summary["mapping"],
            num_mcd_layers=summary["num_mcd_layers"],
            latency_cycles=accel.total_cycles(),
            latency_ms=summary["latency_ms"],
            resources=summary["resources"],
            utilization=summary["utilization"],
            power_w=summary["power_w"],
            energy_per_image_j=summary["energy_per_image_j"],
        )

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        return {
            "design_name": self.design_name,
            "device": self.device,
            "clock_mhz": self.clock_mhz,
            "bitwidth": self.bitwidth,
            "reuse_factor": self.reuse_factor,
            "mapping": self.mapping,
            "num_mcd_layers": self.num_mcd_layers,
            "latency_cycles": self.latency_cycles,
            "latency_ms": self.latency_ms,
            "resources": self.resources,
            "utilization": self.utilization,
            "power_w": self.power_w,
            "energy_per_image_j": self.energy_per_image_j,
        }

    def to_text(self) -> str:
        """Human-readable report in the spirit of a csynth.rpt file."""
        lines = [
            "=" * 68,
            f"  C-Synthesis report (analytical model) — {self.design_name}",
            "=" * 68,
            f"  Target device   : {self.device}",
            f"  Target clock    : {self.clock_mhz:.1f} MHz",
            f"  Data bitwidth   : {self.bitwidth} bits",
            f"  Reuse factor    : {self.reuse_factor}",
            f"  MC mapping      : {self.mapping['strategy']} "
            f"({self.mapping['num_engines']} engine(s), "
            f"{self.mapping['passes_per_engine']} pass(es)/engine)",
            f"  MCD layers      : {self.num_mcd_layers}",
            "-" * 68,
            "  Latency",
            f"    cycles        : {self.latency_cycles}",
            f"    time          : {self.latency_ms:.4f} ms",
            "-" * 68,
            "  Resource usage                 used        utilization",
        ]
        for key in ("bram_18k", "dsp", "ff", "lut"):
            lines.append(
                f"    {key.upper():<12}              {self.resources[key]:>12.0f}"
                f"        {self.utilization[key]:>8.1%}"
            )
        lines.extend(
            [
                "-" * 68,
                "  Power (W)",
            ]
        )
        for key in ("clocking", "logic_signal", "bram", "io", "dsp", "static", "total"):
            lines.append(f"    {key:<14}: {self.power_w[key]:.3f}")
        lines.extend(
            [
                "-" * 68,
                f"  Energy per image : {self.energy_per_image_j * 1000:.3f} mJ",
                "=" * 68,
            ]
        )
        return "\n".join(lines)
