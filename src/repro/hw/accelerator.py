"""Analytical accelerator model tying resources, latency and power together.

An :class:`AcceleratorModel` is the hardware view of a (multi-exit) BayesNN:
the network is partitioned into a **deterministic part** (everything up to
the last non-Bayesian layer, instantiated exactly once) and a **Bayesian
part** (the Monte-Carlo engine that must run once per MC sample).  The
chosen :class:`~repro.hw.mapping.MappingPlan` decides how many copies of the
MC engine exist and how many sequential passes each performs.

This model is what the benchmarks query to regenerate Figure 5 and
Tables II/III; it plays the role of the Vivado-HLS C-synthesis and XPE power
reports in the original paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..nn.model import Network

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from ..core.bayesnn import MultiExitBayesNet
from .devices import FPGADevice, get_device
from .latency import LatencyModel, estimate_layer_cycles
from .mapping import MappingPlan, temporal_mapping
from .power import PowerBreakdown, PowerModel
from .resources import LayerResourceModel, ResourceUsage, estimate_layer_resources

__all__ = [
    "AcceleratorConfig",
    "AcceleratorModel",
    "partition_network",
    "partition_multi_exit",
]

_STOCHASTIC_TYPES = ("MCDropout",)


def _is_stochastic_desc(desc: dict) -> bool:
    return desc.get("type") in _STOCHASTIC_TYPES


def partition_network(network: Network) -> tuple[list[dict], list[dict]]:
    """Split a single-exit network into (deterministic, Bayesian) layer descs.

    The Bayesian part starts at the first MC-dropout layer; if the network
    has no MCD layer the Bayesian part is empty and the whole design is
    deterministic (a non-Bayesian accelerator).
    """
    descs = [layer.describe() for layer in network.layers]
    split = len(descs)
    for i, desc in enumerate(descs):
        if _is_stochastic_desc(desc):
            split = i
            break
    return descs[:split], descs[split:]


def partition_multi_exit(model: "MultiExitBayesNet") -> tuple[list[dict], list[dict]]:
    """Split a multi-exit BayesNN into (deterministic, Bayesian) layer descs.

    The deterministic part is the shared backbone plus the non-Bayesian
    prefix of every exit head; the Bayesian part (one MC engine) is the
    concatenation of every exit head's stochastic suffix.
    """
    deterministic = [layer.describe() for layer in model.backbone.layers]
    bayesian: list[dict] = []
    for head in model.exits:
        head_det, head_bayes = partition_network(head)
        deterministic.extend(head_det)
        bayesian.extend(head_bayes)
    return deterministic, bayesian


@dataclass
class AcceleratorConfig:
    """Design parameters of a generated accelerator."""

    device: str | FPGADevice = "XCKU115"
    clock_mhz: float | None = None
    weight_bitwidth: int = 16
    reuse_factor: int = 1
    num_mc_samples: int = 3
    mapping: MappingPlan | None = None
    resource_model: LayerResourceModel = field(default_factory=LayerResourceModel)
    power_model: PowerModel = field(default_factory=PowerModel)

    def __post_init__(self) -> None:
        if isinstance(self.device, str):
            self.device = get_device(self.device)
        if self.clock_mhz is None:
            self.clock_mhz = self.device.max_clock_mhz
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.weight_bitwidth <= 0:
            raise ValueError("weight_bitwidth must be positive")
        if self.reuse_factor <= 0:
            raise ValueError("reuse_factor must be positive")
        if self.num_mc_samples <= 0:
            raise ValueError("num_mc_samples must be positive")
        if self.mapping is None:
            self.mapping = temporal_mapping(self.num_mc_samples)
        if self.mapping.num_samples != self.num_mc_samples:
            raise ValueError(
                "mapping plan covers a different number of samples than the "
                "accelerator configuration"
            )


class AcceleratorModel:
    """Hardware performance/resource/power model of one accelerator design."""

    def __init__(
        self,
        model: "MultiExitBayesNet | Network",
        config: AcceleratorConfig | None = None,
        name: str | None = None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        self.source_model = model
        if isinstance(model, Network):
            if not model.built:
                raise ValueError("network must be built before hardware modelling")
            self.deterministic_descs, self.bayesian_descs = partition_network(model)
            self.name = name or f"{model.name}_accel"
        elif hasattr(model, "backbone") and hasattr(model, "exits"):
            # a MultiExitBayesNet (checked structurally to avoid a circular import)
            self.deterministic_descs, self.bayesian_descs = partition_multi_exit(model)
            self.name = name or f"{model.name}_accel"
        else:
            raise TypeError(
                "AcceleratorModel expects a MultiExitBayesNet or Network, "
                f"got {type(model).__name__}"
            )
        self._latency_model = LatencyModel(clock_mhz=self.config.clock_mhz)

    # ------------------------------------------------------------------ #
    # structural properties
    # ------------------------------------------------------------------ #
    @property
    def device(self) -> FPGADevice:
        return self.config.device

    @property
    def mapping(self) -> MappingPlan:
        return self.config.mapping

    @property
    def num_mcd_layers(self) -> int:
        """Number of MC-dropout layers in the design."""
        return sum(1 for d in self.bayesian_descs if _is_stochastic_desc(d))

    # ------------------------------------------------------------------ #
    # resources
    # ------------------------------------------------------------------ #
    def _descs_resources(self, descs: Sequence[dict]) -> ResourceUsage:
        total = ResourceUsage()
        for desc in descs:
            total = total + estimate_layer_resources(
                desc,
                bitwidth=self.config.weight_bitwidth,
                reuse_factor=self.config.reuse_factor,
                model=self.config.resource_model,
            )
        return total

    def deterministic_resources(self) -> ResourceUsage:
        """Resources of the non-Bayesian part (instantiated once)."""
        return self._descs_resources(self.deterministic_descs)

    def mc_engine_resources(self) -> ResourceUsage:
        """Resources of one MC engine (one copy of the Bayesian part)."""
        return self._descs_resources(self.bayesian_descs)

    def resources(self) -> ResourceUsage:
        """Total resources with the configured MC-engine replication."""
        total = self.deterministic_resources()
        if self.bayesian_descs:
            total = total + self.mapping.engine_resources(self.mc_engine_resources())
        return total

    def utilization(self) -> dict[str, float]:
        return self.resources().utilization(self.device)

    def fits(self, margin: float = 1.0) -> bool:
        return self.resources().fits(self.device, margin=margin)

    # ------------------------------------------------------------------ #
    # latency
    # ------------------------------------------------------------------ #
    def _descs_cycles(self, descs: Sequence[dict]) -> int:
        latencies = [estimate_layer_cycles(d, self.config.reuse_factor) for d in descs]
        return self._latency_model.chain_cycles(latencies)

    def deterministic_cycles(self) -> int:
        return self._descs_cycles(self.deterministic_descs)

    def mc_engine_cycles(self) -> int:
        """Cycles of a single pass through one MC engine."""
        return self._descs_cycles(self.bayesian_descs)

    def total_cycles(self, num_samples: int | None = None) -> int:
        """End-to-end cycles to produce all MC samples for one input."""
        mapping = self.mapping
        if num_samples is not None and num_samples != mapping.num_samples:
            mapping = MappingPlan(
                num_samples=num_samples,
                num_engines=min(mapping.num_engines, num_samples),
            )
        cycles = self.deterministic_cycles()
        if self.bayesian_descs:
            cycles += mapping.bayesian_latency_cycles(self.mc_engine_cycles())
        return cycles

    def latency_ms(self, num_samples: int | None = None) -> float:
        return self._latency_model.cycles_to_ms(self.total_cycles(num_samples))

    # ------------------------------------------------------------------ #
    # power and energy
    # ------------------------------------------------------------------ #
    def power(self) -> PowerBreakdown:
        return self.config.power_model.estimate(
            self.resources(),
            self.device,
            clock_mhz=self.config.clock_mhz,
            num_parallel_streams=self.mapping.num_engines,
        )

    def energy_per_image_j(self) -> float:
        return self.power().energy_per_image_j(self.latency_ms())

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Dictionary summary used by the synthesis-report generator."""
        power = self.power()
        return {
            "name": self.name,
            "device": self.device.name,
            "clock_mhz": self.config.clock_mhz,
            "bitwidth": self.config.weight_bitwidth,
            "reuse_factor": self.config.reuse_factor,
            "mapping": self.mapping.describe(),
            "num_mcd_layers": self.num_mcd_layers,
            "resources": self.resources().as_dict(),
            "utilization": self.utilization(),
            "latency_ms": self.latency_ms(),
            "power_w": power.as_dict(),
            "energy_per_image_j": power.energy_per_image_j(self.latency_ms()),
        }
