"""Tests for calibration and uncertainty metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uncertainty import (
    accuracy,
    brier_score,
    evaluate_predictions,
    expected_calibration_error,
    expected_entropy,
    maximum_calibration_error,
    mc_uncertainty_results,
    mutual_information,
    negative_log_likelihood,
    predictive_entropy,
    reliability_bins,
)


def random_probs(rng, n, k):
    raw = rng.random((n, k))
    return raw / raw.sum(axis=1, keepdims=True)


class TestCalibration:
    def test_perfectly_calibrated_ece_near_zero(self):
        """Predictions whose confidence equals their accuracy give ECE ~ 0."""
        rng = np.random.default_rng(0)
        n = 4000
        confidence = 0.7
        probs = np.full((n, 2), [confidence, 1 - confidence])
        labels = (rng.random(n) > confidence).astype(int)  # class 0 correct 70%
        ece = expected_calibration_error(probs, labels, num_bins=10)
        assert ece < 0.03

    def test_overconfident_model_has_high_ece(self):
        rng = np.random.default_rng(1)
        n = 2000
        probs = np.full((n, 2), [0.99, 0.01])
        labels = (rng.random(n) > 0.5).astype(int)  # actually 50% accurate
        assert expected_calibration_error(probs, labels) > 0.4

    def test_ece_bounds(self, rng):
        probs = random_probs(rng, 100, 5)
        labels = rng.integers(0, 5, 100)
        ece = expected_calibration_error(probs, labels)
        assert 0.0 <= ece <= 1.0

    def test_mce_at_least_ece(self, rng):
        probs = random_probs(rng, 200, 4)
        labels = rng.integers(0, 4, 200)
        assert maximum_calibration_error(
            probs, labels
        ) >= expected_calibration_error(probs, labels) - 1e-12

    def test_mce_is_the_largest_bin_gap(self):
        probs = np.array([[0.95, 0.05], [0.95, 0.05], [0.65, 0.35], [0.65, 0.35]])
        labels = np.array([0, 0, 0, 1])  # gaps 0.05 and 0.15, two rows each
        assert maximum_calibration_error(probs, labels, 10) == pytest.approx(0.15)
        assert expected_calibration_error(probs, labels, 10) == pytest.approx(0.10)

    def test_confident_correct_predictions_are_calibrated(self):
        probs = np.eye(4)
        assert expected_calibration_error(probs, np.arange(4)) == 0.0
        assert maximum_calibration_error(probs, np.arange(4)) == 0.0

    def test_reliability_bins_cover_all_samples(self, rng):
        probs = random_probs(rng, 150, 3)
        labels = rng.integers(0, 3, 150)
        bins = reliability_bins(probs, labels, num_bins=10)
        assert sum(b.count for b in bins) == 150

    def test_bin_gap_zero_for_empty_bins(self, rng):
        bins = reliability_bins(np.array([[0.9, 0.1]]), np.array([0]), num_bins=10)
        empty = [b for b in bins if b.count == 0]
        assert all(b.gap == 0.0 for b in empty)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expected_calibration_error(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            expected_calibration_error(np.ones((3, 2)) * 2, np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            reliability_bins(np.ones((3, 2)) * 0.5, np.zeros(3, dtype=int), num_bins=0)

    def test_nan_probs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            expected_calibration_error(np.array([[np.nan, np.nan]]), np.array([0]))

    def test_confidence_within_rounding_slack_lands_in_last_bin(self):
        probs = np.array([[1 + 5e-10, 0.0]])
        bins = reliability_bins(probs, np.array([0]))
        assert bins[-1].count == 1
        assert bins[-1].mean_confidence == 1.0
        assert expected_calibration_error(probs, np.array([0])) == 0.0

    def test_every_row_binned_with_rounding_slack(self):
        probs = np.array([[1 + 5e-10, 0.0], [0.6, 0.4]])
        labels = np.array([0, 0])
        assert sum(b.count for b in reliability_bins(probs, labels)) == 2
        assert expected_calibration_error(probs, labels) == pytest.approx(0.2)

    def test_valid_rows_pinned(self):
        """ECE/MCE of valid rows are bit-identical to the values before clipping."""
        rng = np.random.default_rng(2024)
        probs = rng.dirichlet(np.ones(5) * 0.5, size=300)
        probs[:3] = np.eye(5)[:3]  # confidence exactly 1.0
        labels = rng.integers(0, 5, size=300)
        assert expected_calibration_error(probs, labels) == 0.3811390691132454
        assert maximum_calibration_error(probs, labels) == 0.9071046610774391
        assert expected_calibration_error(probs, labels, 7) == 0.38113906911324535

    @given(st.integers(2, 6), st.integers(20, 80))
    @settings(max_examples=20, deadline=None)
    def test_ece_invariant_to_duplicating_dataset(self, k, n):
        rng = np.random.default_rng(n * k)
        probs = random_probs(rng, n, k)
        labels = rng.integers(0, k, n)
        single = expected_calibration_error(probs, labels)
        double = expected_calibration_error(
            np.vstack([probs, probs]), np.concatenate([labels, labels])
        )
        assert abs(single - double) < 1e-12


class TestUncertaintyMetrics:
    def test_accuracy(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(probs, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_nll_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert negative_log_likelihood(probs, np.array([0, 1])) < 1e-9

    def test_nll_uniform(self):
        probs = np.full((4, 5), 0.2)
        assert abs(
            negative_log_likelihood(probs, np.zeros(4, dtype=int)) - np.log(5)
        ) < 1e-9

    def test_brier_bounds(self, rng):
        probs = random_probs(rng, 50, 4)
        labels = rng.integers(0, 4, 50)
        assert 0.0 <= brier_score(probs, labels) <= 2.0

    def test_brier_perfect_zero(self):
        probs = np.eye(3)
        assert brier_score(probs, np.arange(3)) == 0.0

    def test_entropy_uniform_is_maximal(self):
        uniform = np.full((1, 8), 1 / 8)
        peaked = np.zeros((1, 8))
        peaked[0, 0] = 1.0
        assert predictive_entropy(uniform)[0] > predictive_entropy(peaked)[0]
        assert abs(predictive_entropy(uniform)[0] - np.log(8)) < 1e-9

    def test_mutual_information_zero_for_identical_samples(self, rng):
        probs = random_probs(rng, 10, 3)
        stack = np.stack([probs, probs, probs])
        np.testing.assert_allclose(mutual_information(stack), 0.0, atol=1e-12)

    def test_mutual_information_positive_for_disagreeing_samples(self):
        a = np.array([[0.99, 0.01]])
        b = np.array([[0.01, 0.99]])
        mi = mutual_information(np.stack([a, b]))
        assert mi[0] > 0.5

    def test_expected_entropy_shape_validation(self, rng):
        with pytest.raises(ValueError):
            expected_entropy(random_probs(rng, 5, 3))
        with pytest.raises(ValueError):
            mutual_information(random_probs(rng, 5, 3))

    @pytest.mark.parametrize("shape", [(1, 1, 2), (4, 7, 5), (16, 3, 10)])
    def test_mc_uncertainty_results_match_the_metric_functions_bitwise(
        self, rng, shape
    ):
        """One mean and one entropy per batch, the same bits as calling
        ``predictive_entropy`` and ``mutual_information`` separately."""
        s, n, k = shape
        sample_probs = np.stack([random_probs(rng, n, k) for _ in range(s)])
        mean_probs = sample_probs.mean(axis=0)
        entropy = predictive_entropy(mean_probs)
        mi = mutual_information(sample_probs)
        results = mc_uncertainty_results(sample_probs)
        assert len(results) == n
        for i, result in enumerate(results):
            assert result.probs.tobytes() == mean_probs[i].tobytes()
            assert result.entropy == float(entropy[i])
            assert result.mutual_information == float(mi[i])
            assert result.label == int(mean_probs[i].argmax())
            assert result.confidence == float(mean_probs[i].max())
            assert result.num_samples == s

    def test_evaluate_predictions_bundle(self, rng):
        sample_probs = np.stack([random_probs(rng, 20, 4) for _ in range(3)])
        probs = sample_probs.mean(axis=0)
        labels = rng.integers(0, 4, 20)
        report = evaluate_predictions(probs, labels, sample_probs)
        data = report.as_dict()
        assert set(data) >= {
            "accuracy", "nll", "brier", "ece", "mean_entropy", "mean_mutual_information"
        }
        assert data["mean_mutual_information"] >= 0
