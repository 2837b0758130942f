"""Spatial and temporal mapping of Monte-Carlo engines (Phase 2, Figure 4).

The Bayesian component of a multi-exit MCD BayesNN (everything downstream of
the last non-Bayesian layer) must be evaluated once per Monte-Carlo sample.
The accelerator caches the last deterministic tensor and then either:

* **spatial mapping** — instantiates one *MC engine* per sample so all
  samples are produced in parallel (low latency, resources grow with the
  number of samples); or
* **temporal mapping** — shares a single MC engine and streams the cloned
  tensors through it one after another (constant resources, latency grows
  linearly with the number of samples); or
* a **mixed mapping** with ``E`` engines, each handling
  ``ceil(S / E)`` samples.

:func:`optimize_mapping` picks the largest engine count that still fits the
device, which is the "optimizes the mix of spatial and temporal mappings"
step described in Section IV-C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .devices import FPGADevice
from .resources import ResourceUsage

__all__ = [
    "MappingPlan",
    "spatial_mapping",
    "temporal_mapping",
    "optimize_mapping",
]


@dataclass(frozen=True)
class MappingPlan:
    """How MC samples are assigned to hardware MC engines."""

    num_samples: int
    num_engines: int

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not 1 <= self.num_engines <= self.num_samples:
            raise ValueError(
                "num_engines must be between 1 and num_samples "
                f"(got {self.num_engines} for {self.num_samples} samples)"
            )

    # ------------------------------------------------------------------ #
    @property
    def strategy(self) -> str:
        """``"spatial"``, ``"temporal"`` or ``"mixed"``."""
        if self.num_engines == self.num_samples:
            return "spatial"
        if self.num_engines == 1:
            return "temporal"
        return "mixed"

    @property
    def passes_per_engine(self) -> int:
        """Sequential passes each engine performs."""
        return math.ceil(self.num_samples / self.num_engines)

    # ------------------------------------------------------------------ #
    def engine_resources(self, single_engine: ResourceUsage) -> ResourceUsage:
        """Total resources of the replicated Bayesian component."""
        return single_engine * self.num_engines

    def bayesian_latency_cycles(self, single_pass_cycles: int) -> int:
        """Cycles to produce all samples (engines run in parallel)."""
        if single_pass_cycles < 0:
            raise ValueError("single_pass_cycles must be non-negative")
        return self.passes_per_engine * single_pass_cycles

    def describe(self) -> dict:
        return {
            "strategy": self.strategy,
            "num_samples": self.num_samples,
            "num_engines": self.num_engines,
            "passes_per_engine": self.passes_per_engine,
        }


def spatial_mapping(num_samples: int) -> MappingPlan:
    """One MC engine per sample (Figure 4a)."""
    return MappingPlan(num_samples=num_samples, num_engines=num_samples)


def temporal_mapping(num_samples: int) -> MappingPlan:
    """A single shared MC engine (Figure 4b)."""
    return MappingPlan(num_samples=num_samples, num_engines=1)


def optimize_mapping(
    num_samples: int,
    engine_resources: ResourceUsage,
    base_resources: ResourceUsage,
    device: FPGADevice,
    utilization_cap: float = 0.8,
) -> MappingPlan:
    """Choose the most parallel mapping that fits the device.

    Parameters
    ----------
    num_samples:
        Number of MC samples the accelerator must produce.
    engine_resources:
        Resources of a single MC engine (one copy of the Bayesian component).
    base_resources:
        Resources of the non-Bayesian part of the accelerator (always
        instantiated exactly once).
    device:
        Target FPGA.
    utilization_cap:
        Maximum allowed utilization of any resource class; HLS designs that
        exceed ~80% typically fail placement or timing.
    """
    if not 0 < utilization_cap <= 1.0:
        raise ValueError("utilization_cap must be in (0, 1]")
    best: MappingPlan | None = None
    for engines in range(1, num_samples + 1):
        plan = MappingPlan(num_samples=num_samples, num_engines=engines)
        total = base_resources + plan.engine_resources(engine_resources)
        if total.max_utilization(device) <= utilization_cap:
            best = plan
        else:
            break
    if best is None:
        raise ValueError(
            "even a fully temporal mapping does not fit the device under the "
            f"{utilization_cap:.0%} utilization cap"
        )
    return best
