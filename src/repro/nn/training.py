"""Training loops.

Two trainers are provided:

* :class:`Trainer` — plain supervised training of a single-exit
  :class:`repro.nn.model.Network` with cross-entropy.
* :class:`DistillationTrainer` — exit-ensemble *bidirectional* distillation
  (Lee & Lee, 2021) used by the paper to train multi-exit networks: every
  exit is supervised with the hard labels **and** distilled towards the
  equally-weighted ensemble of all exits, so that shallow exits learn from
  deep ones and vice versa.  It operates on any object implementing the
  :class:`MultiExitModel` protocol (``forward_exits`` / ``backward_exits`` /
  ``parameters``), which :class:`repro.core.bayesnn.MultiExitBayesNet`
  satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from .layers.activations import softmax
from .layers.base import Parameter
from .losses import CrossEntropyLoss, DistillationLoss
from .model import Network
from .optimizers import Optimizer

__all__ = [
    "TrainingHistory",
    "Trainer",
    "DistillationTrainer",
    "MultiExitModel",
    "iterate_minibatches",
]


@dataclass
class TrainingHistory:
    """Per-epoch training metrics."""

    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


def iterate_minibatches(
    x: np.ndarray, y: np.ndarray, batch_size: int, rng: np.random.Generator
) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """Yield (inputs, labels) mini-batches in an order shuffled by ``rng``."""
    if len(x) != len(y):
        raise ValueError("inputs and labels must have the same length")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    indices = np.arange(len(x))
    rng.shuffle(indices)
    for start in range(0, len(x), batch_size):
        batch = indices[start : start + batch_size]
        yield x[batch], y[batch]


class _EpochTrainer:
    """The epoch loop both trainers share.

    Each epoch runs the subclass's ``train_on_batch`` once per shuffled
    mini-batch and appends the epoch's mean loss and accuracy to
    :attr:`history`.
    """

    def __init__(self, batch_size: int, seed: int) -> None:
        self.batch_size = int(batch_size)
        self.rng = np.random.default_rng(seed)
        self.history = TrainingHistory()

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int = 1) -> TrainingHistory:
        """Train for a number of epochs over (x, y)."""
        for _ in range(epochs):
            losses: list[float] = []
            accs: list[float] = []
            for xb, yb in iterate_minibatches(x, y, self.batch_size, self.rng):
                loss, acc = self.train_on_batch(xb, yb)
                losses.append(loss)
                accs.append(acc)
            self.history.loss.append(float(np.mean(losses)))
            self.history.accuracy.append(float(np.mean(accs)))
        return self.history


class Trainer(_EpochTrainer):
    """Mini-batch SGD training of a single-exit network."""

    def __init__(
        self,
        model: Network,
        optimizer: Optimizer,
        loss: CrossEntropyLoss | None = None,
        batch_size: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(batch_size, seed)
        self.model = model
        self.optimizer = optimizer
        self.loss = loss or CrossEntropyLoss()

    def train_on_batch(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """One optimization step; returns (loss, accuracy) on the batch."""
        self.optimizer.zero_grad()
        logits = self.model.forward(x, training=True)
        loss = self.loss(logits, y)
        # no reader for the input gradient: layer 0 accumulates its
        # parameter gradients only (MultiExitBayesNet.backward_exits' rule)
        layers = self.model.layers
        grad = self.model.backward_range(self.loss.backward(), 1, len(layers))
        layers[0].backward_params(grad)
        self.optimizer.step()
        accuracy = float((logits.argmax(axis=1) == y).mean())
        return loss, accuracy


class MultiExitModel(Protocol):
    """Protocol a model must satisfy to be trained with exit distillation."""

    def forward_exits(self, x: np.ndarray, training: bool = False) -> list[np.ndarray]:
        """Return the logits of every exit for the given batch."""

    def backward_exits(self, grads: Sequence[np.ndarray]) -> None:
        """Back-propagate one gradient per exit through the shared backbone."""

    def parameters(self) -> Iterable[Parameter]:
        """All trainable parameters of backbone and exits."""


class DistillationTrainer(_EpochTrainer):
    """Bidirectional exit-ensemble distillation for multi-exit models.

    Each exit ``e`` minimises::

        L_e = CE(logits_e, y) + distill_weight * T^2 * KL(ensemble || softmax(logits_e / T))

    where ``ensemble`` is the equally-weighted average of the softened
    predictions of *all* exits (treated as a constant teacher for the
    gradient computation, as in exit-ensemble distillation).
    """

    def __init__(
        self,
        model: MultiExitModel,
        optimizer: Optimizer,
        distill_weight: float = 0.5,
        temperature: float = 3.0,
        batch_size: int = 64,
        seed: int = 0,
    ) -> None:
        if distill_weight < 0:
            raise ValueError("distill_weight must be non-negative")
        super().__init__(batch_size, seed)
        self.model = model
        self.optimizer = optimizer
        self.distill_weight = float(distill_weight)
        self.temperature = float(temperature)

    def train_on_batch(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """One optimization step over every exit; returns (loss, ensemble accuracy)."""
        self.optimizer.zero_grad()
        exit_logits = self.model.forward_exits(x, training=True)

        t = self.temperature
        soft_preds = [softmax(logits / t, axis=-1) for logits in exit_logits]
        teacher = np.mean(soft_preds, axis=0)

        # Deep-supervision weighting: the final exit keeps the full loss weight
        # (so it trains exactly as fast as the single-exit baseline) while the
        # auxiliary exits are down-weighted by 1/num_exits, which keeps the
        # total gradient magnitude on the shared backbone bounded regardless
        # of how many exits are attached.
        num_exits = len(exit_logits)
        weights = [1.0 / num_exits] * (num_exits - 1) + [1.0]
        total_loss = 0.0
        grads: list[np.ndarray] = []
        for logits, weight in zip(exit_logits, weights):
            ce = CrossEntropyLoss()
            total_loss += ce(logits, y)
            grad = ce.backward()
            if self.distill_weight > 0:
                distill = DistillationLoss(temperature=t)
                total_loss += self.distill_weight * distill(logits, teacher)
                grad = grad + self.distill_weight * distill.backward()
            grads.append(grad * weight)

        self.model.backward_exits(grads)
        self.optimizer.step()

        ensemble = np.mean([softmax(lg, axis=-1) for lg in exit_logits], axis=0)
        accuracy = float((ensemble.argmax(axis=1) == y).mean())
        return total_loss / len(exit_logits), accuracy
