"""Tests for the accelerator model, co-exploration, and the published baselines."""

import pytest

from repro.core import single_exit_bayesnet
from repro.hw import (
    PUBLISHED_BASELINES,
    AcceleratorConfig,
    AcceleratorModel,
    CoExplorer,
    DesignPoint,
    pareto_front,
    partition_multi_exit,
    partition_network,
    spatial_mapping,
    temporal_mapping,
)

from ..conftest import small_lenet_spec


@pytest.fixture(scope="module")
def bayes_lenet():
    return single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=1, seed=0)


@pytest.fixture(scope="module")
def accel(bayes_lenet):
    return AcceleratorModel(
        bayes_lenet,
        AcceleratorConfig(
            device="XCKU115",
            weight_bitwidth=8,
            reuse_factor=16,
            num_mc_samples=3,
            mapping=temporal_mapping(3),
        ),
    )


class TestPartitioning:
    def test_partition_network_split_at_first_mcd(self, bayes_lenet):
        det, bayes = partition_network(bayes_lenet)
        assert len(det) + len(bayes) == len(bayes_lenet.layers)
        assert bayes[0]["type"] == "MCDropout"
        assert all(d["type"] != "MCDropout" for d in det)

    def test_partition_deterministic_network_all_deterministic(self):
        net = single_exit_bayesnet(small_lenet_spec())
        det, bayes = partition_network(net)
        assert bayes == []
        assert len(det) == len(net.layers)

    def test_partition_multi_exit(self, multi_exit_model):
        det, bayes = partition_multi_exit(multi_exit_model)
        assert len(det) >= len(multi_exit_model.backbone.layers)
        assert sum(1 for d in bayes if d["type"] == "MCDropout") == 2


class TestAcceleratorModel:
    def test_unbuilt_network_rejected(self):
        from repro.nn.model import Network
        from repro.nn.layers import Dense

        with pytest.raises(ValueError):
            AcceleratorModel(Network([Dense(3)]))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            AcceleratorModel(object())

    def test_num_mcd_layers(self, accel):
        assert accel.num_mcd_layers == 1

    def test_resources_include_engine_replication(self, bayes_lenet):
        temporal = AcceleratorModel(
            bayes_lenet,
            AcceleratorConfig(
                weight_bitwidth=8,
                reuse_factor=16,
                num_mc_samples=3,
                mapping=temporal_mapping(3),
            ),
        )
        spatial = AcceleratorModel(
            bayes_lenet,
            AcceleratorConfig(
                weight_bitwidth=8,
                reuse_factor=16,
                num_mc_samples=3,
                mapping=spatial_mapping(3),
            ),
        )
        assert spatial.resources().lut > temporal.resources().lut
        assert (
            spatial.deterministic_resources().lut
            == temporal.deterministic_resources().lut
        )

    def test_latency_spatial_faster_than_temporal(self, bayes_lenet):
        kwargs = dict(weight_bitwidth=8, reuse_factor=16, num_mc_samples=5)
        temporal = AcceleratorModel(
            bayes_lenet, AcceleratorConfig(mapping=temporal_mapping(5), **kwargs))
        spatial = AcceleratorModel(
            bayes_lenet, AcceleratorConfig(mapping=spatial_mapping(5), **kwargs))
        assert spatial.latency_ms() < temporal.latency_ms()

    def test_latency_grows_with_samples_under_temporal_mapping(self, bayes_lenet):
        def latency(samples):
            return AcceleratorModel(
                bayes_lenet,
                AcceleratorConfig(
                    weight_bitwidth=8,
                    reuse_factor=16,
                    num_mc_samples=samples,
                    mapping=temporal_mapping(samples),
                ),
            ).latency_ms()

        assert latency(1) < latency(4) < latency(8)

    def test_reuse_factor_trades_latency_for_resources(self, bayes_lenet):
        fast = AcceleratorModel(
            bayes_lenet, AcceleratorConfig(
                weight_bitwidth=16, reuse_factor=1, num_mc_samples=3
            ))
        slow = AcceleratorModel(
            bayes_lenet, AcceleratorConfig(
                weight_bitwidth=16, reuse_factor=32, num_mc_samples=3
            ))
        assert fast.latency_ms() < slow.latency_ms()
        assert fast.resources().dsp > slow.resources().dsp

    def test_fits_xcku115(self, accel):
        assert accel.fits(margin=1.0)

    def test_power_and_energy_positive(self, accel):
        assert accel.power().total > 0
        assert accel.energy_per_image_j() > 0

    def test_summary_keys(self, accel):
        summary = accel.summary()
        assert {"resources", "latency_ms", "power_w", "energy_per_image_j"} <= set(
            summary
        )

    def test_mapping_sample_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_mc_samples=3, mapping=temporal_mapping(4))


class TestCoExplorer:
    @pytest.fixture(scope="class")
    def explorer(self):
        def factory(width_multiplier):
            spec = small_lenet_spec(width_multiplier)
            return single_exit_bayesnet(spec, num_mcd_layers=1, seed=0)

        return CoExplorer(factory, device="XCKU115", num_mc_samples=2)

    def test_explore_grid_size(self, explorer):
        points = explorer.explore(
            bitwidths=(8, 16), channel_multipliers=(1.0, 0.5), reuse_factors=(16,)
        )
        assert len(points) == 4

    def test_lower_bitwidth_not_more_dsp(self, explorer):
        p8 = explorer.evaluate_point(DesignPoint(8, 1.0, 16))
        p16 = explorer.evaluate_point(DesignPoint(16, 1.0, 16))
        assert p8.max_utilization <= p16.max_utilization + 1e-9

    def test_channel_scaling_reduces_energy(self, explorer):
        full = explorer.evaluate_point(DesignPoint(8, 1.0, 16))
        quarter = explorer.evaluate_point(DesignPoint(8, 0.25, 16))
        assert quarter.energy_per_image_j < full.energy_per_image_j

    def test_select_minimises_objective(self, explorer):
        points = explorer.explore(
            bitwidths=(8, 16), channel_multipliers=(1.0, 0.5), reuse_factors=(16,)
        )
        best = explorer.select(points, objective="energy")
        assert best.energy_per_image_j == min(p.energy_per_image_j for p in points)

    def test_unknown_objective_rejected(self, explorer):
        point = explorer.evaluate_point(DesignPoint(8, 1.0, 16))
        with pytest.raises(ValueError):
            point.objective("throughput")

    def test_invalid_design_point(self):
        with pytest.raises(ValueError):
            DesignPoint(0, 1.0, 1)
        with pytest.raises(ValueError):
            DesignPoint(8, 0.0, 1)

    def test_pareto_front_non_dominated(self, explorer):
        points = explorer.explore(
            bitwidths=(4, 8, 16), channel_multipliers=(1.0, 0.25), reuse_factors=(4, 64)
        )
        front = pareto_front(points)
        assert front
        for f in front:
            assert not any(
                (
                    o.latency_ms <= f.latency_ms
                    and o.energy_per_image_j <= f.energy_per_image_j
                    and (
                        o.latency_ms < f.latency_ms
                        or o.energy_per_image_j < f.energy_per_image_j
                    )
                )
                for o in points
                if o is not f
            )

    def test_accuracy_constraint_filters(self):
        def factory(width_multiplier):
            return single_exit_bayesnet(small_lenet_spec(width_multiplier), 1, seed=0)

        calls = {"n": 0}

        def fake_accuracy(model, bitwidth):
            calls["n"] += 1
            return 0.9 if bitwidth >= 8 else 0.1

        explorer = CoExplorer(
            factory,
            num_mc_samples=2,
            accuracy_fn=fake_accuracy,
            accuracy_tolerance=0.05,
        )
        points = explorer.explore(
            bitwidths=(4, 16), channel_multipliers=(1.0,), reuse_factors=(16,)
        )
        feasible = explorer.feasible(points)
        assert all(p.point.bitwidth >= 8 for p in feasible)
        assert calls["n"] >= 2


class TestBaselines:
    def test_published_rows_present(self):
        assert set(PUBLISHED_BASELINES) == {
            "CPU",
            "GPU",
            "ASPLOS18",
            "DATE20",
            "DAC21",
            "TPDS22",
        }

    def test_rows_carry_positive_figures(self):
        for row in PUBLISHED_BASELINES.values():
            data = row.as_row()
            assert data["name"] == row.name and data["platform"]
            for field in ("frequency_mhz", "technology_nm", "power_w", "latency_ms"):
                assert data[field] > 0
            assert data["energy_per_image_j"] == pytest.approx(
                row.power_w * row.latency_ms / 1000.0
            )

    def test_energy_efficiency_matches_paper_table(self):
        baselines = PUBLISHED_BASELINES
        assert baselines["CPU"].energy_per_image_j == pytest.approx(0.258, abs=0.001)
        assert baselines["GPU"].energy_per_image_j == pytest.approx(0.134, abs=0.001)
        assert baselines["DATE20"].energy_per_image_j == pytest.approx(
            0.012, abs=0.001
        )
