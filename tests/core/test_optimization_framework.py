"""Tests for the Phase-1 optimizer and the four-phase transformation framework."""

import pytest

from repro.core import (
    CandidateConfig,
    EvaluatedDesign,
    MultiExitOptimizer,
    UserConstraints,
)
from repro.core.framework import FrameworkConfig, TransformationFramework
from repro.datasets import SyntheticImageDataset

from ..conftest import small_lenet_spec


@pytest.fixture(scope="module")
def fast_dataset():
    return SyntheticImageDataset(
        "phase1",
        input_shape=(1, 12, 12),
        num_classes=5,
        train_size=64,
        test_size=32,
        noise_level=0.4,
        seed=1,
    )


@pytest.fixture(scope="module")
def optimizer(fast_dataset):
    return MultiExitOptimizer(
        spec_factory=small_lenet_spec,
        train_split=fast_dataset.train,
        test_split=fast_dataset.test,
        epochs=1,
        lr=0.05,
        batch_size=32,
        seed=0,
    )


class TestConstraintsAndSelection:
    def _design(self, accuracy, ece, flops):
        return EvaluatedDesign(
            config=CandidateConfig(1, 0.25, 1, 4),
            accuracy=accuracy,
            ece=ece,
            nll=1.0,
            flops=flops,
            relative_flops=flops,
        )

    def test_constraint_filtering(self):
        designs = [self._design(0.9, 0.05, 1.0), self._design(0.5, 0.01, 1.0)]
        kept = MultiExitOptimizer.filter(designs, UserConstraints(min_accuracy=0.8))
        assert len(kept) == 1 and kept[0].accuracy == 0.9

    def test_flops_constraint(self):
        designs = [self._design(0.9, 0.05, 2.0), self._design(0.8, 0.05, 0.9)]
        kept = MultiExitOptimizer.filter(
            designs, UserConstraints(max_relative_flops=1.0)
        )
        assert len(kept) == 1

    def test_selection_by_priority(self):
        designs = [self._design(0.9, 0.10, 1.0), self._design(0.8, 0.02, 0.5)]
        assert MultiExitOptimizer.select(designs, "accuracy").accuracy == 0.9
        assert MultiExitOptimizer.select(designs, "calibration").ece == 0.02
        assert MultiExitOptimizer.select(designs, "flops").relative_flops == 0.5

    def test_unknown_priority(self):
        with pytest.raises(ValueError):
            MultiExitOptimizer.select([self._design(0.9, 0.1, 1.0)], "latency")

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            MultiExitOptimizer.select([], "accuracy")


class TestPhase1Flow:
    def test_explore_and_run(self, optimizer):
        candidates = [
            CandidateConfig(
                num_exits=1, dropout_rate=0.25, mcd_layers_per_exit=1, num_mc_samples=2
            ),
            CandidateConfig(
                num_exits=2, dropout_rate=0.25, mcd_layers_per_exit=1, num_mc_samples=2
            ),
        ]
        best, designs = optimizer.run(candidates=candidates, priority="calibration")
        assert len(designs) == 2
        assert best in designs
        assert best.model is not None
        assert 0.0 <= best.accuracy <= 1.0
        assert best.ece >= 0.0
        assert best.relative_flops > 0.0

    def test_run_needs_candidates(self, optimizer, fast_dataset):
        """No default grid: the caller names every candidate Phase 1 trains."""
        framework = TransformationFramework(
            small_lenet_spec, fast_dataset.train, fast_dataset.test
        )
        with pytest.raises(TypeError, match="candidates"):
            optimizer.run()
        with pytest.raises(TypeError, match="candidates"):
            framework.run()
        with pytest.raises(TypeError, match="candidates"):
            framework.run_phase1()

    def test_reference_flops_positive(self, optimizer):
        assert optimizer.reference_flops() > 0

    def test_build_candidate_structure(self, optimizer):
        model = optimizer.build_candidate(
            CandidateConfig(
                num_exits=2, dropout_rate=0.5, mcd_layers_per_exit=1, num_mc_samples=4
            )
        )
        assert model.num_exits == 2
        assert model.config.dropout_rate == 0.5

    def test_a_candidate_without_mc_dropout_is_not_scored(self, optimizer):
        """An ME candidate has no MC ensemble: scoring it raises instead of
        reading a round robin that skews its exits."""
        candidate = CandidateConfig(
            num_exits=2, dropout_rate=0.0, mcd_layers_per_exit=0, num_mc_samples=1
        )
        model = optimizer.build_candidate(candidate)
        with pytest.raises(ValueError, match="needs MC dropout"):
            optimizer.evaluate_candidate(candidate, model)

    def test_infeasible_constraints_fall_back(self, optimizer):
        candidates = [
            CandidateConfig(
                num_exits=1, dropout_rate=0.25, mcd_layers_per_exit=1, num_mc_samples=2
            )
        ]
        best, _ = optimizer.run(
            candidates=candidates,
            constraints=UserConstraints(min_accuracy=1.1),  # impossible
            priority="accuracy",
        )
        assert best is not None


class TestTransformationFramework:
    @pytest.fixture(scope="class")
    def framework(self, fast_dataset):
        return TransformationFramework(
            spec_factory=small_lenet_spec,
            train_split=fast_dataset.train,
            test_split=fast_dataset.test,
            config=FrameworkConfig(
                device="XCKU115",
                num_mc_samples=2,
                train_epochs=1,
                bitwidths=(8,),
                channel_multipliers=(1.0,),
                reuse_factors=(16,),
            ),
        )

    @pytest.fixture(scope="class")
    def design(self, framework):
        candidates = [
            CandidateConfig(
                num_exits=2, dropout_rate=0.25, mcd_layers_per_exit=1, num_mc_samples=2
            )
        ]
        return framework.run(candidates=candidates)

    def test_phase1_design_present(self, design):
        assert design.phase1_design.config.num_exits == 2

    def test_accelerator_fits_device(self, design):
        assert design.accelerator.fits(margin=1.0)

    def test_report_consistency(self, design):
        report = design.report
        assert report.device == "XCKU115"
        assert report.latency_ms > 0
        assert report.power_w["total"] > 0

    def test_hls_files_generated(self, design):
        assert set(design.hls_files) >= {
            "parameters.h",
            "mcd_layers.h",
            "layers.h",
            "top.cpp",
        }
        assert "mc_dropout" in design.hls_files["mcd_layers.h"]

    def test_mapping_covers_samples(self, design):
        assert design.mapping.num_samples == 2

    def test_mapping_is_phase2_sized_by_phase3_point(self, framework, design):
        assert design.mapping == framework.run_phase2(
            design.model, design.phase3_point
        )
