"""Calibration metrics: expected calibration error and reliability bins.

The paper reports calibration with the expected calibration error (ECE):
predictions are grouped into equal-width confidence bins, and ECE is the
weighted average absolute gap between the mean confidence and the empirical
accuracy of each bin.  A low ECE denotes better calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReliabilityBin",
    "reliability_bins",
    "expected_calibration_error",
]


@dataclass
class ReliabilityBin:
    """Statistics of one confidence bin of a reliability diagram."""

    lower: float
    upper: float
    count: int
    mean_confidence: float
    accuracy: float

    @property
    def gap(self) -> float:
        """Absolute confidence/accuracy gap (0 for empty bins)."""
        if self.count == 0:
            return 0.0
        return abs(self.mean_confidence - self.accuracy)


def _validate_probs(
    probs: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise ValueError(f"probs must be (N, classes), got shape {probs.shape}")
    if labels.shape != (probs.shape[0],):
        raise ValueError("labels must be a 1-D array matching probs' first dimension")
    if probs.shape[0] == 0:
        raise ValueError("cannot compute calibration of an empty prediction set")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probs must be finite")
    if np.any(probs < -1e-9) or np.any(probs > 1 + 1e-9):
        raise ValueError("probs must lie in [0, 1]")
    return probs, labels


def reliability_bins(
    probs: np.ndarray, labels: np.ndarray, num_bins: int = 15
) -> list[ReliabilityBin]:
    """Compute reliability-diagram bins from predicted probabilities.

    Parameters
    ----------
    probs:
        Predicted class probabilities of shape ``(N, num_classes)``.
    labels:
        Integer ground-truth labels of shape ``(N,)``.
    num_bins:
        Number of equal-width confidence bins over ``[0, 1]``.
    """
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    probs, labels = _validate_probs(probs, labels)

    # validation admits rounding slack of 1e-9 either side of [0, 1]; clip
    # it so those rows land in the first or last bin rather than in none
    confidences = np.clip(probs.max(axis=1), 0.0, 1.0)
    predictions = probs.argmax(axis=1)
    correct = (predictions == labels).astype(np.float64)

    edges = np.linspace(0.0, 1.0, num_bins + 1)
    bins: list[ReliabilityBin] = []
    for b in range(num_bins):
        lower, upper = edges[b], edges[b + 1]
        if b == 0:
            mask = (confidences >= lower) & (confidences <= upper)
        else:
            mask = (confidences > lower) & (confidences <= upper)
        count = int(mask.sum())
        if count:
            bins.append(
                ReliabilityBin(
                    lower=float(lower),
                    upper=float(upper),
                    count=count,
                    mean_confidence=float(confidences[mask].mean()),
                    accuracy=float(correct[mask].mean()),
                )
            )
        else:
            bins.append(
                ReliabilityBin(
                    lower=float(lower),
                    upper=float(upper),
                    count=0,
                    mean_confidence=0.0,
                    accuracy=0.0,
                )
            )
    return bins


def expected_calibration_error(
    probs: np.ndarray, labels: np.ndarray, num_bins: int = 15
) -> float:
    """Expected calibration error (ECE); lower is better."""
    bins = reliability_bins(probs, labels, num_bins)
    total = sum(b.count for b in bins)
    return float(sum(b.count / total * b.gap for b in bins))
