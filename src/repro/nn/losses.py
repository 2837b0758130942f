"""Loss functions used for training and distillation.

All classification losses operate on *logits* (pre-softmax scores): folding
the softmax into the loss keeps the gradients numerically stable.
"""

from __future__ import annotations

import numpy as np

from .layers.activations import log_softmax, softmax
from .tensor import one_hot

__all__ = [
    "CrossEntropyLoss",
    "DistillationLoss",
    "cross_entropy",
    "kl_divergence",
]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer labels under softmax(logits)."""
    logp = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    return float(-logp[np.arange(n), labels].mean())


def kl_divergence(p: np.ndarray, q: np.ndarray, epsilon: float = 1e-12) -> float:
    """Mean KL(p || q) between rows of two probability matrices."""
    p = np.clip(p, epsilon, 1.0)
    q = np.clip(q, epsilon, 1.0)
    return float((p * (np.log(p) - np.log(q))).sum(axis=-1).mean())


class CrossEntropyLoss:
    """Softmax cross-entropy with integer targets."""

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        self._probs = softmax(logits, axis=-1)
        self._labels = np.asarray(labels)
        return cross_entropy(logits, self._labels)

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        n, num_classes = self._probs.shape
        grad = self._probs - one_hot(self._labels, num_classes)
        return grad / n


class DistillationLoss:
    """Soft-target distillation loss used for exit-ensemble training.

    The loss is the KL divergence between the student's softened predictions
    and a teacher probability distribution, scaled by ``temperature ** 2`` as
    in Hinton et al.  It is combined with the hard-label cross-entropy by
    :class:`repro.nn.training.DistillationTrainer`.
    """

    def __init__(self, temperature: float = 3.0) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = float(temperature)

    def __call__(self, logits: np.ndarray, teacher_probs: np.ndarray) -> float:
        return self.forward(logits, teacher_probs)

    def forward(self, logits: np.ndarray, teacher_probs: np.ndarray) -> float:
        t = self.temperature
        self._student = softmax(logits / t, axis=-1)
        self._teacher = np.asarray(teacher_probs)
        return kl_divergence(self._teacher, self._student) * t * t

    def backward(self) -> np.ndarray:
        """Gradient with respect to the student logits."""
        n = self._student.shape[0]
        # d/dlogits of T^2 * KL(teacher || softmax(logits/T)) = T*(student - teacher)
        return self.temperature * (self._student - self._teacher) / n
