"""The four-phase transformation framework (Figure 2).

Given a non-Bayesian neural architecture, the framework produces an
FPGA-accelerator design for the corresponding multi-exit MCD BayesNN:

* **Phase 1** — multi-exit optimization: construct and train candidate
  multi-exit MCD BayesNNs, evaluate accuracy/calibration/FLOPs, and pick the
  best configuration under user constraints
  (:class:`repro.core.optimization.MultiExitOptimizer`).  Candidate
  evaluation runs through the sample-folded
  :class:`repro.inference.InferenceEngine`.
* **Phase 2** — spatial and temporal mapping of the Monte-Carlo engines
  (:mod:`repro.hw.mapping`).  The *spatial* mapping replicates the MC engine
  per sample so all ``S`` samples of the stochastic suffix are evaluated at
  once on the cloned cached tensor; :mod:`repro.inference` is the software
  analogue of exactly this mapping — samples are folded into the batch axis
  and the stochastic suffix runs once, so the Python hot path mirrors what
  the silicon does instead of paying ``S`` sequential passes.
* **Phase 3** — algorithm–hardware co-exploration of bitwidth, channel
  scaling and reuse factor (:class:`repro.hw.dse.CoExplorer`).
* **Phase 4** — generation of the HLS-based accelerator and its synthesis
  report (:mod:`repro.hw.hls`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..datasets.synthetic import DatasetSplit
from ..hw.accelerator import AcceleratorConfig, AcceleratorModel
from ..hw.devices import FPGADevice, get_device
from ..hw.dse import CoExplorer, EvaluatedDesignPoint
from ..hw.hls.codegen import HLSCodeGenerator
from ..hw.hls.report import SynthesisReport
from ..hw.mapping import MappingPlan, optimize_mapping, temporal_mapping
from ..nn.architectures.common import BackboneSpec
from ..quantization.fixed_point import STANDARD_BITWIDTHS
from ..uncertainty.metrics import accuracy as accuracy_metric
from .bayesnn import MultiExitBayesNet, MultiExitConfig
from .optimization import (
    CandidateConfig,
    EvaluatedDesign,
    MultiExitOptimizer,
    UserConstraints,
)

__all__ = ["FrameworkConfig", "AcceleratorDesign", "TransformationFramework"]


@dataclass
class FrameworkConfig:
    """User-facing knobs of the transformation framework."""

    device: str | FPGADevice = "XCKU115"
    num_mc_samples: int = 3
    optimization_priority: str = "calibration"
    constraints: UserConstraints = field(default_factory=UserConstraints)
    train_epochs: int = 1
    learning_rate: float = 0.05
    batch_size: int = 32
    dse_objective: str = "energy"
    bitwidths: Sequence[int] = STANDARD_BITWIDTHS
    channel_multipliers: Sequence[float] = (1.0, 0.5)
    reuse_factors: Sequence[int] = (1, 2)
    utilization_cap: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.device, str):
            self.device = get_device(self.device)


@dataclass
class AcceleratorDesign:
    """Final output of the framework: model + hardware design + artefacts."""

    model: MultiExitBayesNet
    phase1_design: EvaluatedDesign
    phase1_all_designs: list[EvaluatedDesign]
    mapping: MappingPlan
    phase3_point: EvaluatedDesignPoint
    phase3_all_points: list[EvaluatedDesignPoint]
    accelerator: AcceleratorModel
    report: SynthesisReport
    hls_files: dict[str, str]


class TransformationFramework:
    """End-to-end driver of the four phases.

    Parameters
    ----------
    spec_factory:
        Callable returning a fresh :class:`BackboneSpec`.  It may optionally
        accept a ``width_multiplier`` keyword (used by Phase 3 channel
        scaling); factories that do not accept it are still supported, in
        which case channel scaling is skipped.
    train_split, test_split:
        Dataset used for Phase 1 training/evaluation and the Phase 3
        accuracy-preservation check.
    config:
        Framework configuration.
    """

    def __init__(
        self,
        spec_factory: Callable[..., BackboneSpec],
        train_split: DatasetSplit,
        test_split: DatasetSplit,
        config: FrameworkConfig | None = None,
    ) -> None:
        self.spec_factory = spec_factory
        self.train_split = train_split
        self.test_split = test_split
        self.config = config or FrameworkConfig()

    # ------------------------------------------------------------------ #
    def _spec(self, width_multiplier: float = 1.0) -> BackboneSpec:
        try:
            return self.spec_factory(width_multiplier=width_multiplier)
        except TypeError:
            return self.spec_factory()

    # ------------------------------------------------------------------ #
    # Phase 1
    # ------------------------------------------------------------------ #
    def run_phase1(
        self, candidates: Sequence[CandidateConfig]
    ) -> tuple[EvaluatedDesign, list[EvaluatedDesign]]:
        """Multi-exit optimization (Figure 3)."""
        optimizer = MultiExitOptimizer(
            spec_factory=self._spec,
            train_split=self.train_split,
            test_split=self.test_split,
            epochs=self.config.train_epochs,
            lr=self.config.learning_rate,
            batch_size=self.config.batch_size,
            seed=self.config.seed,
        )
        return optimizer.run(
            candidates=candidates,
            constraints=self.config.constraints,
            priority=self.config.optimization_priority,
        )

    # ------------------------------------------------------------------ #
    # Phase 2
    # ------------------------------------------------------------------ #
    def run_phase2(
        self,
        model: MultiExitBayesNet,
        point: EvaluatedDesignPoint | None = None,
    ) -> MappingPlan:
        """Choose the spatial/temporal MC-engine mapping for the device.

        A Phase-3 ``point`` sizes the probe with its bitwidth and reuse
        factor, so the mapping reflects the final per-engine footprint.
        """
        sizing = (
            {}
            if point is None
            else dict(
                weight_bitwidth=point.point.bitwidth,
                reuse_factor=point.point.reuse_factor,
            )
        )
        probe = AcceleratorModel(
            model,
            AcceleratorConfig(
                device=self.config.device,
                num_mc_samples=self.config.num_mc_samples,
                mapping=temporal_mapping(self.config.num_mc_samples),
                **sizing,
            ),
        )
        if not probe.bayesian_descs:
            return temporal_mapping(self.config.num_mc_samples)
        try:
            return optimize_mapping(
                self.config.num_mc_samples,
                probe.mc_engine_resources(),
                probe.deterministic_resources(),
                self.config.device,
                utilization_cap=self.config.utilization_cap,
            )
        except ValueError:
            return temporal_mapping(self.config.num_mc_samples)

    # ------------------------------------------------------------------ #
    # Phase 3
    # ------------------------------------------------------------------ #
    def run_phase3(
        self, phase1_design: EvaluatedDesign
    ) -> tuple[EvaluatedDesignPoint, list[EvaluatedDesignPoint]]:
        """Algorithm–hardware co-exploration around the Phase 1 design."""
        candidate = phase1_design.config

        def model_factory(width_multiplier: float) -> MultiExitBayesNet:
            spec = self._spec(width_multiplier)
            return MultiExitBayesNet(
                spec,
                MultiExitConfig(
                    num_exits=min(candidate.num_exits, spec.num_blocks),
                    mcd_layers_per_exit=candidate.mcd_layers_per_exit,
                    dropout_rate=candidate.dropout_rate,
                    default_mc_samples=candidate.num_mc_samples,
                    seed=self.config.seed,
                ),
            )

        def accuracy_fn(model: MultiExitBayesNet, bitwidth: int) -> float:
            # quantization-aware accuracy check on (a subset of) the test split
            from ..quantization.quantizers import QuantizationConfig, quantize_network

            for head in model.exits:
                quantize_network(head, QuantizationConfig(weight_bits=bitwidth))
            quantize_network(model.backbone, QuantizationConfig(weight_bits=bitwidth))
            subset = min(len(self.test_split), 64)
            probs = model.predict_proba(
                self.test_split.x[:subset], self.config.num_mc_samples
            )
            return accuracy_metric(probs, self.test_split.y[:subset])

        explorer = CoExplorer(
            model_factory=model_factory,
            device=self.config.device,
            num_mc_samples=self.config.num_mc_samples,
            accuracy_fn=accuracy_fn,
            utilization_cap=self.config.utilization_cap,
        )
        return explorer.run(
            objective=self.config.dse_objective,
            bitwidths=self.config.bitwidths,
            channel_multipliers=self.config.channel_multipliers,
            reuse_factors=self.config.reuse_factors,
        )

    # ------------------------------------------------------------------ #
    # Phase 4
    # ------------------------------------------------------------------ #
    def run_phase4(
        self,
        model: MultiExitBayesNet,
        mapping: MappingPlan,
        point: EvaluatedDesignPoint,
    ) -> tuple[AcceleratorModel, SynthesisReport, dict[str, str]]:
        """Generate the HLS accelerator and its synthesis report."""
        accel = AcceleratorModel(
            model,
            AcceleratorConfig(
                device=self.config.device,
                weight_bitwidth=point.point.bitwidth,
                reuse_factor=point.point.reuse_factor,
                num_mc_samples=self.config.num_mc_samples,
                mapping=mapping,
            ),
        )
        generator = HLSCodeGenerator(accel)
        files = generator.generate()
        report = SynthesisReport.from_accelerator(accel)
        return accel, report, files

    # ------------------------------------------------------------------ #
    def run(self, candidates: Sequence[CandidateConfig]) -> AcceleratorDesign:
        """Execute all four phases and return the complete design bundle."""
        best_design, all_designs = self.run_phase1(candidates)
        model = best_design.model
        if model is None:
            raise RuntimeError("Phase 1 must keep the trained model (keep_models=True)")

        best_point, all_points = self.run_phase3(best_design)

        # Phase 2 runs after Phase 3 so the mapping is sized by its point
        mapping = self.run_phase2(model, best_point)
        accel, report, files = self.run_phase4(model, mapping, best_point)
        return AcceleratorDesign(
            model=model,
            phase1_design=best_design,
            phase1_all_designs=all_designs,
            mapping=mapping,
            phase3_point=best_point,
            phase3_all_points=all_points,
            accelerator=accel,
            report=report,
            hls_files=files,
        )
