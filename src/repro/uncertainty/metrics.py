"""Predictive-uncertainty metrics.

These metrics operate either on a single predictive distribution
(``probs`` of shape ``(N, classes)``) or on a stack of Monte-Carlo samples
(``sample_probs`` of shape ``(S, N, classes)``), in which case the epistemic
part of the uncertainty (mutual information) becomes available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "accuracy",
    "negative_log_likelihood",
    "brier_score",
    "predictive_entropy",
    "expected_entropy",
    "mutual_information",
    "UncertaintyReport",
    "UncertaintyResult",
    "evaluate_predictions",
    "mc_uncertainty_results",
]

_EPS = 1e-12


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of a predictive distribution."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    return float((probs.argmax(axis=-1) == labels).mean())


def negative_log_likelihood(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels."""
    probs = np.clip(np.asarray(probs, dtype=np.float64), _EPS, 1.0)
    labels = np.asarray(labels)
    n = probs.shape[0]
    return float(-np.log(probs[np.arange(n), labels]).mean())


def brier_score(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean multi-class Brier score (squared error against one-hot labels)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(probs.shape[0]), labels] = 1.0
    return float(((probs - onehot) ** 2).sum(axis=1).mean())


def predictive_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of the (mean) predictive distribution, per sample."""
    probs = np.clip(np.asarray(probs, dtype=np.float64), _EPS, 1.0)
    return -(probs * np.log(probs)).sum(axis=-1)


def expected_entropy(sample_probs: np.ndarray) -> np.ndarray:
    """Mean entropy of the individual MC-sample distributions, per data point."""
    sample_probs = np.asarray(sample_probs, dtype=np.float64)
    if sample_probs.ndim != 3:
        raise ValueError("sample_probs must have shape (S, N, classes)")
    return predictive_entropy(sample_probs).mean(axis=0)


def mutual_information(sample_probs: np.ndarray) -> np.ndarray:
    """Epistemic uncertainty (BALD): H[mean p] - mean H[p], per data point."""
    sample_probs = np.asarray(sample_probs, dtype=np.float64)
    if sample_probs.ndim != 3:
        raise ValueError("sample_probs must have shape (S, N, classes)")
    mean_probs = sample_probs.mean(axis=0)
    return predictive_entropy(mean_probs) - expected_entropy(sample_probs)


@dataclass
class UncertaintyResult:
    """Prediction + uncertainty bundle for a *single* example.

    This is the per-request response type of the serving layer
    (:meth:`repro.serving.ServingEngine.submit`), but it is equally usable
    for batch workflows via :func:`mc_uncertainty_results`.

    Attributes
    ----------
    probs:
        Predictive distribution over classes, shape ``(classes,)`` — the MC
        mean in sampling mode, the selected (ensembled) exit distribution in
        early-exit mode.
    label:
        ``argmax`` of :attr:`probs`.
    confidence:
        ``max`` of :attr:`probs`.
    entropy:
        Predictive entropy of :attr:`probs` (total uncertainty).
    mutual_information:
        Epistemic part of the uncertainty (BALD); ``None`` when no MC
        samples were drawn (deterministic or early-exit predictions).
    exit_index:
        Exit that produced the prediction in early-exit mode, else ``None``.
    num_samples:
        MC samples behind the prediction, ``None`` for single-pass modes.
    latency_s:
        End-to-end request latency stamped by the serving layer (submit to
        response, including queueing); ``None`` outside serving.
    """

    probs: np.ndarray
    label: int
    confidence: float
    entropy: float
    mutual_information: float | None = None
    exit_index: int | None = None
    num_samples: int | None = None
    latency_s: float | None = None


def mc_uncertainty_results(
    sample_probs: np.ndarray, num_samples: int | None = None
) -> list[UncertaintyResult]:
    """Per-example :class:`UncertaintyResult` list from MC sample stacks.

    Parameters
    ----------
    sample_probs:
        Monte-Carlo predictive samples of shape ``(S, N, classes)`` (e.g.
        ``MCPrediction.sample_probs`` from the folded engines).
    num_samples:
        Recorded on each result; defaults to ``S``.
    """
    sample_probs = np.asarray(sample_probs, dtype=np.float64)
    if sample_probs.ndim != 3:
        raise ValueError("sample_probs must have shape (S, N, classes)")
    if num_samples is None:
        num_samples = int(sample_probs.shape[0])
    mean_probs = sample_probs.mean(axis=0)
    entropy = predictive_entropy(mean_probs)
    mi = entropy - expected_entropy(sample_probs)  # mutual_information, reusing both
    labels = mean_probs.argmax(axis=1)
    confidence = mean_probs.max(axis=1)
    return [
        UncertaintyResult(
            probs=mean_probs[i],
            label=int(labels[i]),
            confidence=float(confidence[i]),
            entropy=float(entropy[i]),
            mutual_information=float(mi[i]),
            num_samples=num_samples,
        )
        for i in range(mean_probs.shape[0])
    ]


@dataclass
class UncertaintyReport:
    """Bundle of classification and uncertainty metrics for one model/dataset."""

    accuracy: float
    nll: float
    brier: float
    ece: float
    mean_entropy: float
    mean_mutual_information: float | None = None

    def as_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "nll": self.nll,
            "brier": self.brier,
            "ece": self.ece,
            "mean_entropy": self.mean_entropy,
        }
        if self.mean_mutual_information is not None:
            out["mean_mutual_information"] = self.mean_mutual_information
        return out


def evaluate_predictions(
    probs: np.ndarray,
    labels: np.ndarray,
    sample_probs: np.ndarray | None = None,
    num_bins: int = 15,
) -> UncertaintyReport:
    """Compute the full metric bundle for a set of predictions.

    Parameters
    ----------
    probs:
        Mean predictive distribution of shape ``(N, classes)``.
    labels:
        Ground-truth labels of shape ``(N,)``.
    sample_probs:
        Optional per-MC-sample distributions ``(S, N, classes)``; enables the
        mutual-information (epistemic) component.
    """
    from .calibration import expected_calibration_error

    mi = None
    if sample_probs is not None:
        mi = float(mutual_information(sample_probs).mean())
    return UncertaintyReport(
        accuracy=accuracy(probs, labels),
        nll=negative_log_likelihood(probs, labels),
        brier=brier_score(probs, labels),
        ece=expected_calibration_error(probs, labels, num_bins=num_bins),
        mean_entropy=float(predictive_entropy(probs).mean()),
        mean_mutual_information=mi,
    )
