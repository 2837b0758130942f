"""Phase 3: algorithm–hardware co-exploration (Section IV-D).

The co-exploration jointly searches algorithmic knobs (weight/activation
bitwidth, channel count) and hardware knobs (reuse factor, spatial/temporal
mapping mix) by grid search, following the paper's heuristics: bitwidths are
chosen from {4, 6, 8, 16} and channel counts from {C, C/2, C/4, C/8}.  A
design point is feasible when the accelerator fits the target device and its
algorithmic performance does not drop below the default configuration by
more than a user-set tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..quantization.fixed_point import STANDARD_BITWIDTHS
from .accelerator import AcceleratorConfig, AcceleratorModel
from .devices import FPGADevice, get_device
from .mapping import MappingPlan, optimize_mapping, temporal_mapping

__all__ = [
    "DesignPoint",
    "EvaluatedDesignPoint",
    "CoExplorer",
    "CHANNEL_MULTIPLIERS",
    "pareto_front",
]

#: Channel scaling factors searched by the co-exploration ({C, C/2, C/4, C/8}).
CHANNEL_MULTIPLIERS: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125)


@dataclass(frozen=True)
class DesignPoint:
    """One point of the joint algorithm/hardware design space."""

    bitwidth: int
    channel_multiplier: float
    reuse_factor: int

    def __post_init__(self) -> None:
        if self.bitwidth <= 0:
            raise ValueError("bitwidth must be positive")
        if self.channel_multiplier <= 0:
            raise ValueError("channel_multiplier must be positive")
        if self.reuse_factor <= 0:
            raise ValueError("reuse_factor must be positive")


@dataclass
class EvaluatedDesignPoint:
    """A design point together with its hardware and algorithmic metrics."""

    point: DesignPoint
    mapping: MappingPlan
    latency_ms: float
    energy_per_image_j: float
    max_utilization: float
    fits: bool
    accuracy: float | None = None

    def objective(self, name: str) -> float:
        """Scalar objective (lower is better)."""
        if name == "latency":
            return self.latency_ms
        if name == "energy":
            return self.energy_per_image_j
        if name == "resources":
            return self.max_utilization
        raise ValueError(
            f"unknown objective {name!r}; expected 'latency', 'energy' or 'resources'"
        )


def pareto_front(
    points: Sequence[EvaluatedDesignPoint],
    objectives: tuple[str, str] = ("latency", "energy"),
) -> list[EvaluatedDesignPoint]:
    """Non-dominated subset of design points under two minimisation objectives."""
    front: list[EvaluatedDesignPoint] = []
    for candidate in points:
        c = (candidate.objective(objectives[0]), candidate.objective(objectives[1]))
        dominated = False
        for other in points:
            if other is candidate:
                continue
            o = (other.objective(objectives[0]), other.objective(objectives[1]))
            if o[0] <= c[0] and o[1] <= c[1] and (o[0] < c[0] or o[1] < c[1]):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


class CoExplorer:
    """Grid-search co-exploration of algorithm and hardware parameters.

    Parameters
    ----------
    model_factory:
        Callable mapping a channel multiplier to a built model (either a
        :class:`~repro.core.bayesnn.MultiExitBayesNet` or a plain
        :class:`~repro.nn.model.Network`).  Each call must return a fresh
        model.
    device:
        Target FPGA (name or :class:`FPGADevice`).
    num_mc_samples:
        MC samples the accelerator must produce per input.
    accuracy_fn:
        Optional callable ``(model, bitwidth) -> accuracy`` used to enforce
        the "no algorithmic regression" constraint.  When omitted, only
        hardware feasibility is checked.
    accuracy_tolerance:
        Maximum allowed accuracy drop relative to the baseline configuration
        (bitwidth 16, full channels).
    utilization_cap:
        Maximum allowed device utilization for any resource class.
    """

    def __init__(
        self,
        model_factory: Callable[[float], object],
        device: str | FPGADevice = "XCKU115",
        num_mc_samples: int = 3,
        accuracy_fn: Callable[[object, int], float] | None = None,
        accuracy_tolerance: float = 0.02,
        utilization_cap: float = 0.8,
        clock_mhz: float | None = None,
    ) -> None:
        self.model_factory = model_factory
        self.device = get_device(device) if isinstance(device, str) else device
        self.num_mc_samples = int(num_mc_samples)
        self.accuracy_fn = accuracy_fn
        self.accuracy_tolerance = float(accuracy_tolerance)
        self.utilization_cap = float(utilization_cap)
        self.clock_mhz = clock_mhz
        self._baseline_accuracy: float | None = None

    # ------------------------------------------------------------------ #
    def baseline_accuracy(self) -> float | None:
        """Accuracy of the default configuration (16 bits, full channels)."""
        if self.accuracy_fn is None:
            return None
        if self._baseline_accuracy is None:
            model = self.model_factory(1.0)
            self._baseline_accuracy = float(self.accuracy_fn(model, 16))
        return self._baseline_accuracy

    def evaluate_point(self, point: DesignPoint) -> EvaluatedDesignPoint:
        """Build and evaluate the accelerator for one design point."""
        model = self.model_factory(point.channel_multiplier)

        # first pass with a temporal mapping to measure one engine's footprint
        probe_config = AcceleratorConfig(
            device=self.device,
            clock_mhz=self.clock_mhz,
            weight_bitwidth=point.bitwidth,
            reuse_factor=point.reuse_factor,
            num_mc_samples=self.num_mc_samples,
            mapping=temporal_mapping(self.num_mc_samples),
        )
        probe = AcceleratorModel(model, probe_config)
        try:
            mapping = optimize_mapping(
                self.num_mc_samples,
                probe.mc_engine_resources(),
                probe.deterministic_resources(),
                self.device,
                utilization_cap=self.utilization_cap,
            )
        except ValueError:
            mapping = temporal_mapping(self.num_mc_samples)

        config = AcceleratorConfig(
            device=self.device,
            clock_mhz=self.clock_mhz,
            weight_bitwidth=point.bitwidth,
            reuse_factor=point.reuse_factor,
            num_mc_samples=self.num_mc_samples,
            mapping=mapping,
        )
        accel = AcceleratorModel(model, config)

        accuracy = None
        if self.accuracy_fn is not None:
            accuracy = float(self.accuracy_fn(model, point.bitwidth))

        return EvaluatedDesignPoint(
            point=point,
            mapping=mapping,
            latency_ms=accel.latency_ms(),
            energy_per_image_j=accel.energy_per_image_j(),
            max_utilization=accel.resources().max_utilization(self.device),
            fits=accel.fits(margin=self.utilization_cap),
            accuracy=accuracy,
        )

    # ------------------------------------------------------------------ #
    def explore(
        self,
        bitwidths: Iterable[int] = STANDARD_BITWIDTHS,
        channel_multipliers: Iterable[float] = CHANNEL_MULTIPLIERS,
        reuse_factors: Iterable[int] = (1, 2, 4),
    ) -> list[EvaluatedDesignPoint]:
        """Evaluate the full grid of design points."""
        results = []
        for bits in bitwidths:
            for mult in channel_multipliers:
                for reuse in reuse_factors:
                    results.append(
                        self.evaluate_point(
                            DesignPoint(
                                bitwidth=bits,
                                channel_multiplier=mult,
                                reuse_factor=reuse,
                            )
                        )
                    )
        return results

    def feasible(
        self, points: Sequence[EvaluatedDesignPoint]
    ) -> list[EvaluatedDesignPoint]:
        """Points that fit the device and preserve algorithmic performance."""
        baseline = self.baseline_accuracy()
        out = []
        for p in points:
            if not p.fits:
                continue
            if (
                baseline is not None
                and p.accuracy is not None
                and p.accuracy < baseline - self.accuracy_tolerance
            ):
                continue
            out.append(p)
        return out

    def select(
        self,
        points: Sequence[EvaluatedDesignPoint],
        objective: str = "energy",
    ) -> EvaluatedDesignPoint:
        """Best feasible point under the given objective (lower is better)."""
        feasible = self.feasible(points)
        candidates = feasible if feasible else list(points)
        if not candidates:
            raise ValueError("no design points to select from")
        return min(candidates, key=lambda p: p.objective(objective))

    def run(
        self,
        objective: str = "energy",
        bitwidths: Iterable[int] = STANDARD_BITWIDTHS,
        channel_multipliers: Iterable[float] = CHANNEL_MULTIPLIERS,
        reuse_factors: Iterable[int] = (1, 2, 4),
    ) -> tuple[EvaluatedDesignPoint, list[EvaluatedDesignPoint]]:
        """Full Phase 3 flow: explore the grid and pick the best design."""
        points = self.explore(bitwidths, channel_multipliers, reuse_factors)
        return self.select(points, objective), points
