"""Uncertainty-quantification and calibration metrics."""

from .calibration import (
    ReliabilityBin,
    expected_calibration_error,
    reliability_bins,
)
from .metrics import (
    UncertaintyReport,
    UncertaintyResult,
    accuracy,
    brier_score,
    evaluate_predictions,
    expected_entropy,
    mc_uncertainty_results,
    mutual_information,
    negative_log_likelihood,
    predictive_entropy,
)

__all__ = [
    "ReliabilityBin",
    "reliability_bins",
    "expected_calibration_error",
    "UncertaintyReport",
    "UncertaintyResult",
    "mc_uncertainty_results",
    "accuracy",
    "brier_score",
    "negative_log_likelihood",
    "predictive_entropy",
    "expected_entropy",
    "mutual_information",
    "evaluate_predictions",
]
