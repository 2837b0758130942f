"""Phase 1 of the transformation framework: multi-exit optimization.

This implements the optimization exploration flow of Figure 3: candidate
multi-exit MCD BayesNNs are constructed over a grid of (number of exits,
dropout rate, number of MC forward passes), each candidate is trained on the
target dataset, evaluated (accuracy, calibration, FLOPs), filtered against
user constraints, and the best remaining design according to the chosen
optimization priority is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..datasets.synthetic import DatasetSplit
from ..nn.architectures.common import BackboneSpec
from ..nn.optimizers import SGD
from ..nn.training import DistillationTrainer
from ..uncertainty.calibration import expected_calibration_error
from ..uncertainty.metrics import accuracy as accuracy_metric
from ..uncertainty.metrics import negative_log_likelihood
from .bayesnn import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet

__all__ = [
    "CandidateConfig",
    "UserConstraints",
    "EvaluatedDesign",
    "MultiExitOptimizer",
]


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the Phase 1 design space."""

    num_exits: int
    dropout_rate: float
    mcd_layers_per_exit: int
    num_mc_samples: int


@dataclass
class UserConstraints:
    """Constraints that Phase 1 designs must satisfy (Figure 3 "filter" step)."""

    min_accuracy: float | None = None
    max_ece: float | None = None
    max_relative_flops: float | None = None

    def satisfied_by(self, design: "EvaluatedDesign") -> bool:
        if self.min_accuracy is not None and design.accuracy < self.min_accuracy:
            return False
        if self.max_ece is not None and design.ece > self.max_ece:
            return False
        if (
            self.max_relative_flops is not None
            and design.relative_flops > self.max_relative_flops
        ):
            return False
        return True


@dataclass
class EvaluatedDesign:
    """A trained candidate together with its evaluated metrics."""

    config: CandidateConfig
    accuracy: float
    ece: float
    nll: float
    flops: float
    relative_flops: float
    model: MultiExitBayesNet | None = None

    def score(self, priority: str) -> float:
        """Scalar score (higher is better) under the given optimization priority."""
        if priority == "accuracy":
            return self.accuracy
        if priority in ("ece", "calibration"):
            return -self.ece
        if priority == "flops":
            return -self.relative_flops
        raise ValueError(
            f"unknown optimization priority {priority!r}; "
            "expected 'accuracy', 'calibration'/'ece' or 'flops'"
        )


class MultiExitOptimizer:
    """Phase 1 optimizer: construct, train, evaluate, filter, select.

    Parameters
    ----------
    spec_factory:
        Zero-argument callable returning the :class:`BackboneSpec` every
        candidate and the single-exit reference are built from.
    train_split, test_split:
        Dataset splits used for training and evaluation.
    epochs, lr, batch_size:
        Training hyper-parameters shared by all candidates.
    reference_flops:
        FLOPs of the single-exit non-Bayesian baseline used to normalise the
        ``relative_flops`` metric; computed automatically when omitted.
    """

    def __init__(
        self,
        spec_factory: Callable[[], BackboneSpec],
        train_split: DatasetSplit,
        test_split: DatasetSplit,
        epochs: int = 2,
        lr: float = 0.05,
        batch_size: int = 32,
        distill_weight: float = 0.5,
        seed: int = 0,
        reference_flops: float | None = None,
        keep_models: bool = True,
    ) -> None:
        self.spec_factory = spec_factory
        self.train_split = train_split
        self.test_split = test_split
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.batch_size = int(batch_size)
        self.distill_weight = float(distill_weight)
        self.seed = int(seed)
        self.keep_models = bool(keep_models)
        self._reference_flops = reference_flops

    # ------------------------------------------------------------------ #
    def reference_flops(self) -> float:
        """FLOPs of one forward pass of the single-exit baseline."""
        if self._reference_flops is None:
            from .flops import network_flops

            baseline = single_exit_bayesnet(self.spec_factory(), seed=self.seed)
            self._reference_flops = float(network_flops(baseline))
        return self._reference_flops

    def build_candidate(self, candidate: CandidateConfig) -> MultiExitBayesNet:
        """Construct an (untrained) model for one candidate configuration."""
        spec = self.spec_factory()
        config = MultiExitConfig(
            num_exits=candidate.num_exits,
            mcd_layers_per_exit=candidate.mcd_layers_per_exit,
            dropout_rate=candidate.dropout_rate,
            default_mc_samples=candidate.num_mc_samples,
            seed=self.seed,
        )
        return MultiExitBayesNet(spec, config)

    def train_candidate(self, model: MultiExitBayesNet) -> None:
        """Train one candidate with exit-ensemble distillation."""
        optimizer = SGD(model.parameters(), lr=self.lr, momentum=0.9, weight_decay=5e-4)
        trainer = DistillationTrainer(
            model,
            optimizer,
            distill_weight=self.distill_weight,
            batch_size=self.batch_size,
            seed=self.seed,
        )
        trainer.fit(self.train_split.x, self.train_split.y, epochs=self.epochs)

    def evaluate_candidate(
        self, candidate: CandidateConfig, model: MultiExitBayesNet
    ) -> EvaluatedDesign:
        """Evaluate accuracy, ECE, NLL and FLOPs of a trained candidate.

        Prediction runs through the model's sample-folded
        :class:`repro.inference.InferenceEngine`: the backbone is evaluated
        once and all MC samples share it.
        """
        probs = model.engine.predict_proba(self.test_split.x, candidate.num_mc_samples)
        labels = self.test_split.y
        flops = model.sampling_flops(candidate.num_mc_samples)
        return EvaluatedDesign(
            config=candidate,
            accuracy=accuracy_metric(probs, labels),
            ece=expected_calibration_error(probs, labels),
            nll=negative_log_likelihood(probs, labels),
            flops=float(flops),
            relative_flops=float(flops) / self.reference_flops(),
            model=model if self.keep_models else None,
        )

    # ------------------------------------------------------------------ #
    def explore(self, candidates: Iterable[CandidateConfig]) -> list[EvaluatedDesign]:
        """Train and evaluate every candidate configuration."""
        designs = []
        for candidate in candidates:
            model = self.build_candidate(candidate)
            self.train_candidate(model)
            designs.append(self.evaluate_candidate(candidate, model))
        return designs

    @staticmethod
    def filter(
        designs: Sequence[EvaluatedDesign], constraints: UserConstraints
    ) -> list[EvaluatedDesign]:
        """Drop designs that violate the user constraints."""
        return [d for d in designs if constraints.satisfied_by(d)]

    @staticmethod
    def select(designs: Sequence[EvaluatedDesign], priority: str) -> EvaluatedDesign:
        """Pick the best design under the given optimization priority."""
        if not designs:
            raise ValueError("no designs satisfy the constraints")
        return max(designs, key=lambda d: d.score(priority))

    def run(
        self,
        candidates: Iterable[CandidateConfig],
        constraints: UserConstraints | None = None,
        priority: str = "calibration",
    ) -> tuple[EvaluatedDesign, list[EvaluatedDesign]]:
        """Execute the full Phase 1 flow of Figure 3 over ``candidates``.

        Returns the selected design and the list of all evaluated designs.
        """
        constraints = constraints or UserConstraints()

        designs = self.explore(candidates)
        feasible = self.filter(designs, constraints)
        if not feasible:
            # fall back to the least-violating design rather than failing hard,
            # mirroring a designer relaxing constraints after inspection
            feasible = list(designs)
        best = self.select(feasible, priority)
        return best, designs
