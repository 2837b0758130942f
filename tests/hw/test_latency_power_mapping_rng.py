"""Tests for the latency model, power model and MC-engine mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    XCKU115,
    LatencyModel,
    MappingPlan,
    PowerModel,
    ResourceUsage,
    estimate_layer_cycles,
    get_device,
    optimize_mapping,
    spatial_mapping,
    temporal_mapping,
)
from repro.nn.layers import Conv2D, Dense, MCDropout

from .test_devices_resources import desc


class TestLatencyModel:
    def test_conv_cycles_scale_with_reuse(self):
        d = desc(Conv2D(8, 3, padding=1), (4, 8, 8))
        fast = estimate_layer_cycles(d, reuse_factor=1)
        slow = estimate_layer_cycles(d, reuse_factor=16)
        assert slow.cycles == 16 * fast.cycles

    def test_mcd_cycles_equal_elements(self):
        d = desc(MCDropout(0.25), (8, 4, 4))
        assert estimate_layer_cycles(d).cycles == 8 * 4 * 4

    def test_dense_cycles_set_by_reuse(self):
        d = desc(Dense(32), (64,))
        assert estimate_layer_cycles(d, reuse_factor=8).cycles == 8

    def test_chain_cycles_sum(self):
        model = LatencyModel(clock_mhz=100)
        descs = [
            desc(Conv2D(4, 3, padding=1), (2, 6, 6)),
            desc(MCDropout(0.5), (4, 6, 6)),
        ]
        lats = [estimate_layer_cycles(d) for d in descs]
        assert model.chain_cycles(lats) == sum(lat.total_cycles for lat in lats)

    def test_cycles_to_ms(self):
        model = LatencyModel(clock_mhz=200)
        assert model.cycles_to_ms(200_000) == pytest.approx(1.0)

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            LatencyModel(clock_mhz=0)

    def test_invalid_reuse(self):
        with pytest.raises(ValueError):
            estimate_layer_cycles(desc(Dense(4), (8,)), reuse_factor=0)


class TestPowerModel:
    def _resources(self):
        return ResourceUsage(bram_18k=100, dsp=500, ff=50_000, lut=80_000)

    def test_breakdown_total_is_sum(self):
        power = PowerModel().estimate(self._resources(), XCKU115, 181.0, 3)
        parts = power.as_dict()
        assert parts["total"] == pytest.approx(parts["dynamic"] + parts["static"])

    def test_percentages_sum_to_one(self):
        power = PowerModel().estimate(self._resources(), XCKU115, 181.0, 3)
        assert sum(power.percentages().values()) == pytest.approx(1.0)

    def test_static_is_device_static(self):
        power = PowerModel().estimate(self._resources(), XCKU115, 181.0, 1)
        assert power.static == pytest.approx(XCKU115.static_power_w)

    def test_power_scales_with_frequency(self):
        model = PowerModel()
        low = model.estimate(self._resources(), XCKU115, 100.0, 1)
        high = model.estimate(self._resources(), XCKU115, 200.0, 1)
        assert high.dynamic > low.dynamic

    def test_io_scales_with_parallel_streams(self):
        model = PowerModel()
        one = model.estimate(self._resources(), XCKU115, 181.0, 1)
        many = model.estimate(self._resources(), XCKU115, 181.0, 5)
        assert many.io > one.io

    def test_energy_per_image(self):
        power = PowerModel().estimate(self._resources(), XCKU115, 181.0, 1)
        assert power.energy_per_image_j(1.0) == pytest.approx(power.total / 1000.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PowerModel().estimate(self._resources(), XCKU115, 0.0, 1)
        with pytest.raises(ValueError):
            PowerModel().estimate(self._resources(), XCKU115, 100.0, 0)
        power = PowerModel().estimate(self._resources(), XCKU115, 181.0, 1)
        with pytest.raises(ValueError):
            power.energy_per_image_j(-1.0)


class TestMapping:
    def test_spatial_temporal_strategies(self):
        assert spatial_mapping(4).strategy == "spatial"
        assert temporal_mapping(4).strategy == "temporal"
        assert MappingPlan(4, 2).strategy == "mixed"

    def test_passes_per_engine(self):
        assert spatial_mapping(5).passes_per_engine == 1
        assert temporal_mapping(5).passes_per_engine == 5
        assert MappingPlan(5, 2).passes_per_engine == 3

    def test_engine_resources_scale(self):
        engine = ResourceUsage(dsp=10, lut=100)
        plan = MappingPlan(6, 3)
        total = plan.engine_resources(engine)
        assert total.dsp == 30 and total.lut == 300

    def test_latency_cycles(self):
        assert spatial_mapping(4).bayesian_latency_cycles(100) == 100
        assert temporal_mapping(4).bayesian_latency_cycles(100) == 400
        assert MappingPlan(4, 2).bayesian_latency_cycles(100) == 200

    def test_invalid_plans(self):
        with pytest.raises(ValueError):
            MappingPlan(num_samples=0, num_engines=1)
        with pytest.raises(ValueError):
            MappingPlan(num_samples=2, num_engines=3)
        with pytest.raises(ValueError):
            spatial_mapping(3).bayesian_latency_cycles(-1)

    def test_optimize_mapping_prefers_spatial_when_it_fits(self):
        engine = ResourceUsage(dsp=10, lut=1000, ff=1000)
        base = ResourceUsage(dsp=100, lut=10_000, ff=10_000)
        plan = optimize_mapping(4, engine, base, XCKU115)
        assert plan.strategy == "spatial"

    def test_optimize_mapping_falls_back_to_fewer_engines(self):
        device = get_device("XC7Z020")
        engine = ResourceUsage(dsp=100, lut=10_000, ff=10_000)
        base = ResourceUsage(dsp=10, lut=5_000, ff=5_000)
        plan = optimize_mapping(4, engine, base, device, utilization_cap=0.8)
        assert plan.num_engines < 4

    def test_optimize_mapping_infeasible_raises(self):
        device = get_device("XC7Z020")
        engine = ResourceUsage(dsp=10_000)
        with pytest.raises(ValueError):
            optimize_mapping(2, engine, ResourceUsage(), device)

    @given(samples=st.integers(1, 16), engines=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_passes_times_engines_covers_samples(self, samples, engines):
        if engines > samples:
            engines = samples
        plan = MappingPlan(num_samples=samples, num_engines=engines)
        assert plan.passes_per_engine * plan.num_engines >= samples
        assert (plan.passes_per_engine - 1) * plan.num_engines < samples
