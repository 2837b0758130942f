"""Tests for the hardware IR, HLS code generation, and synthesis reports."""

import itertools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import single_exit_bayesnet
from repro.hw import (
    AcceleratorConfig,
    AcceleratorModel,
    get_device,
    spatial_mapping,
    temporal_mapping,
)
from repro.hw.hls import (
    HardwareIR,
    HLSCodeGenerator,
    SynthesisReport,
)
from repro.nn.architectures import lenet5_spec, vgg_spec
from repro.nn.layers import MaxPool2D

from ..conftest import small_lenet_spec


@pytest.fixture(scope="module")
def accel_spatial():
    net = single_exit_bayesnet(
        small_lenet_spec(), num_mcd_layers=2, dropout_rate=0.25, seed=0
    )
    return AcceleratorModel(
        net,
        AcceleratorConfig(
            device="XCKU115",
            weight_bitwidth=8,
            reuse_factor=16,
            num_mc_samples=3,
            mapping=spatial_mapping(3),
        ),
    )


@pytest.fixture(scope="module")
def accel_temporal():
    net = single_exit_bayesnet(
        small_lenet_spec(), num_mcd_layers=1, dropout_rate=0.5, seed=0
    )
    return AcceleratorModel(
        net,
        AcceleratorConfig(
            device="XCKU115",
            weight_bitwidth=16,
            reuse_factor=16,
            num_mc_samples=4,
            mapping=temporal_mapping(4),
        ),
    )


class TestHardwareIR:
    def test_node_count_matches_layers(self, accel_spatial):
        ir = HardwareIR.from_accelerator(accel_spatial)
        descs = accel_spatial.deterministic_descs + accel_spatial.bayesian_descs
        assert len(ir.nodes()) == len(descs)

    def test_bayesian_region_after_deterministic(self, accel_spatial):
        ir = HardwareIR.from_accelerator(accel_spatial)
        ir.validate()  # would raise if a deterministic node followed a Bayesian one

    def test_bayesian_region_starts_at_the_first_mcd_layer(self, accel_spatial):
        """The last deterministic node is where the activation cache sits."""
        ir = HardwareIR.from_accelerator(accel_spatial)
        det, bayes = ir.deterministic_nodes(), ir.bayesian_nodes()
        assert ir.nodes() == det + bayes
        assert bayes[0].kernel == "mc_dropout"
        assert all(node.kernel != "mc_dropout" for node in det)

    def test_validate_rejects_an_empty_or_misordered_chain(self, accel_spatial):
        with pytest.raises(ValueError, match="no layers"):
            HardwareIR("empty").validate()
        ir = HardwareIR("misordered")
        ir._append(accel_spatial.bayesian_descs[0], "bayesian")
        ir._append(accel_spatial.deterministic_descs[0], "deterministic")
        with pytest.raises(ValueError, match="after the Bayesian region"):
            ir.validate()

    def test_repeated_layer_names_get_numbered_nodes(self, accel_spatial):
        ir = HardwareIR("repeated")
        desc = accel_spatial.deterministic_descs[0]
        for _ in range(3):
            ir._append(desc, "deterministic")
        name = desc["name"]
        assert [n.name for n in ir.nodes()] == [name, f"{name}_2", f"{name}_3"]

    def test_mcd_nodes_detected(self, accel_spatial):
        ir = HardwareIR.from_accelerator(accel_spatial)
        assert len(ir.mcd_nodes()) == 2

    def test_kernel_mapping(self, accel_spatial):
        ir = HardwareIR.from_accelerator(accel_spatial)
        kernels = {n.kernel for n in ir.nodes()}
        assert {"conv2d", "dense", "mc_dropout", "maxpool2d"} <= kernels

    def test_invalid_region_rejected(self):
        from repro.hw.hls.ir import HWLayerNode

        with pytest.raises(ValueError):
            HWLayerNode("x", "dense", "Dense", (4,), (2,), region="weird")


class TestCodeGeneration:
    def test_all_files_generated(self, accel_spatial):
        files = HLSCodeGenerator(accel_spatial).generate()
        assert set(files) == {
            "parameters.h", "mcd_layers.h", "layers.h", "top.cpp", "build_prj.tcl"
        }

    def test_generation_is_deterministic(self, accel_temporal):
        first = HLSCodeGenerator(accel_temporal).generate()
        second = HLSCodeGenerator(accel_temporal).generate()
        assert first == second
        assert all(text.strip() for text in first.values())

    def test_parameters_header_contents(self, accel_spatial):
        params = HLSCodeGenerator(accel_spatial).parameters_header()
        assert "ap_fixed<8," in params
        assert "N_MC_SAMPLES   = 3" in params
        assert "N_MC_ENGINES   = 3" in params
        assert "XCKU115" in params

    def test_mcd_kernel_matches_algorithm1(self, accel_spatial):
        mcd = HLSCodeGenerator(accel_spatial).mcd_header()
        # Algorithm 1 structure: pipelined loop, uniform random comparison,
        # zeroing, and scaling by the keep rate.
        assert "#pragma HLS PIPELINE" in mcd
        assert "uniform_random >" in mcd
        assert "temp = 0" in mcd
        assert "temp * keep_rate" in mcd
        assert mcd.count("void mc_dropout_") == 2

    def test_keep_rate_matches_dropout_rate(self, accel_temporal):
        gen = HLSCodeGenerator(accel_temporal)
        assert "KEEP_RATE      = 0.5" in gen.parameters_header()

    def test_layers_header_has_kernel_per_mac_layer(self, accel_spatial):
        layers = HLSCodeGenerator(accel_spatial).layers_header()
        assert layers.count("void conv2d_") == 2
        assert layers.count("void dense_") == 3
        assert "void max_pool_" in layers

    def test_top_spatial_dispatch(self, accel_spatial):
        top = HLSCodeGenerator(accel_spatial).top_source()
        assert "#pragma HLS DATAFLOW" in top
        assert "HLS UNROLL" in top
        assert "deterministic_body" in top

    def test_top_temporal_dispatch(self, accel_temporal):
        top = HLSCodeGenerator(accel_temporal).top_source()
        assert "MC_TEMPORAL" in top
        assert "HLS UNROLL" not in top

    def test_build_script_clock_period(self, accel_spatial):
        tcl = HLSCodeGenerator(accel_spatial).build_script()
        assert "create_clock -period 5.52" in tcl  # 181 MHz -> 5.52 ns
        assert "xcku115" in tcl

    def test_build_script_refuses_a_device_without_a_vivado_part(self):
        net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=1, seed=0)
        accel = AcceleratorModel(
            net,
            AcceleratorConfig(
                device=get_device("Cyclone V"), weight_bitwidth=8, reuse_factor=16
            ),
        )
        with pytest.raises(ValueError, match=r"'Cyclone V'.*'XCKU115'"):
            HLSCodeGenerator(accel).build_script()

    def test_max_pool_kernels_keep_no_sum(self, accel_spatial):
        layers = HLSCodeGenerator(accel_spatial).layers_header()
        kernels = re.findall(r"void max_pool_\w+\(.*?\n\}\n", layers, re.S)
        assert len(kernels) == 2
        for kernel in kernels:
            assert not re.search(r"\bsum\b", kernel)
            assert "output[c][oh][ow] = best;" in kernel

    @pytest.mark.parametrize(
        "make_spec",
        [
            lenet5_spec,
            lambda: vgg_spec("vgg11", width_multiplier=0.0625),
            lambda: vgg_spec("vgg19", width_multiplier=0.0625),
        ],
        ids=["lenet5", "vgg11", "vgg19"],
    )
    def test_max_pool_kernels_compute_what_the_layers_compute(self, make_spec):
        """Each ``MaxPool2D``'s kernel has the layer's input and output dims
        and reads tiling windows, ``oh * pool_size + kh``, inside its input:
        the layer's stride is its pool size, all the template can express."""
        net = single_exit_bayesnet(make_spec(), num_mcd_layers=1, seed=0)
        accel = AcceleratorModel(
            net, AcceleratorConfig(weight_bitwidth=8, reuse_factor=16)
        )
        layers = HLSCodeGenerator(accel).layers_header()
        pools = [layer for layer in net.layers if isinstance(layer, MaxPool2D)]
        assert pools
        for pool in pools:
            kernel = re.search(
                rf"void max_pool_{pool.name}\(.*?\n\}}\n", layers, re.S
            ).group(0)
            (c, h, w), (_, oh, ow) = pool.input_shape, pool.output_shape
            assert f"data_t input[{c}][{h}][{w}]" in kernel
            assert f"data_t output[{c}][{oh}][{ow}]" in kernel
            size = pool.pool_size
            assert f"input[c][oh * {size} + kh][ow * {size} + kw]" in kernel
            assert size * oh <= h and size * ow <= w, "a window reads past the input"

    def test_invalid_dropout_rate_rejected(self, accel_spatial):
        with pytest.raises(ValueError):
            HLSCodeGenerator(accel_spatial, dropout_rate=1.5)

    def test_non_bayesian_design_generates_empty_mcd_header(self):
        net = single_exit_bayesnet(small_lenet_spec(), seed=0)
        accel = AcceleratorModel(
            net, AcceleratorConfig(weight_bitwidth=8, reuse_factor=16)
        )
        mcd = HLSCodeGenerator(accel).mcd_header()
        assert "no MC-dropout layers" in mcd


def _lfsr_taps(mcd_header: str) -> int:
    """The feedback mask of the generated ``lfsr_step``."""
    return int(re.search(r"& (0x[0-9a-fA-F]+)u\);", mcd_header).group(1), 16)


def _lfsr_seeds(top_source: str) -> list[int]:
    """The initial ``lfsr_states`` of the generated top function."""
    seeds = re.search(r"lfsr_states\[\d+\] = \{([^}]*)\}", top_source).group(1)
    return [int(s) for s in seeds.split(",")]


def _lfsr_states(seed: int, taps: int, steps: int) -> np.ndarray:
    """The states the generated ``lfsr_step`` walks through from ``seed``."""
    states = np.empty(steps, dtype=np.uint64)
    state = seed
    for i in range(steps):
        state = (state >> 1) ^ (taps if state & 1 else 0)
        states[i] = state
    return states


class TestGeneratedLFSR:
    """The Galois LFSR that feeds the generated MC-dropout kernels."""

    STEPS = 20_000

    def test_each_spatial_engine_starts_from_its_own_nonzero_seed(
        self, accel_spatial
    ):
        seeds = _lfsr_seeds(HLSCodeGenerator(accel_spatial).top_source())
        assert len(seeds) == accel_spatial.mapping.num_engines == 3
        assert len(set(seeds)) == len(seeds)
        assert all(0 < s < 2**32 for s in seeds)

    def test_temporal_mapping_seeds_its_one_engine(self, accel_temporal):
        top = HLSCodeGenerator(accel_temporal).top_source()
        seeds = _lfsr_seeds(top)
        assert len(seeds) == accel_temporal.mapping.num_engines == 1
        assert seeds[0] != 0
        assert "lfsr_states[0]" in top

    def test_state_never_reaches_zero(self, accel_spatial):
        gen = HLSCodeGenerator(accel_spatial)
        taps = _lfsr_taps(gen.mcd_header())
        for seed in _lfsr_seeds(gen.top_source()):
            states = _lfsr_states(seed, taps, self.STEPS)
            assert states.min() > 0
            assert states.max() < 2**32

    def test_uniform_draws_cover_the_unit_interval_evenly(self, accel_spatial):
        gen = HLSCodeGenerator(accel_spatial)
        seed = _lfsr_seeds(gen.top_source())[0]
        u = _lfsr_states(seed, _lfsr_taps(gen.mcd_header()), self.STEPS) / 2.0**32
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02
        counts, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
        assert np.all(np.abs(counts / self.STEPS - 0.1) < 0.02)

    @pytest.mark.parametrize("accel", ["accel_spatial", "accel_temporal"])
    def test_kept_share_matches_the_keep_rate(self, accel, request):
        """Algorithm 1 zeroes an element when its draw exceeds the keep rate."""
        model = request.getfixturevalue(accel)
        gen = HLSCodeGenerator(model)
        keep = float(
            re.search(r"KEEP_RATE\s+= ([0-9.]+)f", gen.parameters_header()).group(1)
        )
        assert keep == pytest.approx(1.0 - gen.dropout_rate)
        seed = _lfsr_seeds(gen.top_source())[0]
        u = _lfsr_states(seed, _lfsr_taps(gen.mcd_header()), self.STEPS) / 2.0**32
        assert abs(np.mean(u <= keep) - keep) < 0.02

    def test_engines_draw_different_streams(self, accel_spatial):
        gen = HLSCodeGenerator(accel_spatial)
        taps = _lfsr_taps(gen.mcd_header())
        streams = [
            _lfsr_states(seed, taps, 64) for seed in _lfsr_seeds(gen.top_source())
        ]
        for a, b in itertools.combinations(streams, 2):
            assert not np.intersect1d(a, b).size


class TestSynthesisReport:
    def test_report_fields(self, accel_spatial):
        report = SynthesisReport.from_accelerator(accel_spatial)
        assert report.device == "XCKU115"
        assert report.latency_ms == pytest.approx(accel_spatial.latency_ms())
        assert report.num_mcd_layers == 2
        assert report.power_w["total"] > 0

    def test_as_dict_roundtrip(self, accel_spatial):
        data = SynthesisReport.from_accelerator(accel_spatial).as_dict()
        assert data["mapping"]["strategy"] == "spatial"
        assert set(data["resources"]) == {"bram_18k", "dsp", "ff", "lut"}

    def test_text_report_sections(self, accel_spatial):
        text = SynthesisReport.from_accelerator(accel_spatial).to_text()
        for section in (
            "C-Synthesis report",
            "Latency",
            "Resource usage",
            "Power",
            "Energy per image",
        ):
            assert section in text


_WITHOUT_NETWORKX = textwrap.dedent(
    """
    import sys

    sys.modules["networkx"] = None  # any import of it now raises
    import repro
    import repro.serving
    from repro.core import single_exit_bayesnet
    from repro.hw import AcceleratorConfig, AcceleratorModel
    from repro.hw.hls import HLSCodeGenerator
    from repro.nn.architectures import lenet5_spec

    spec = lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)
    net = single_exit_bayesnet(spec, num_mcd_layers=1, dropout_rate=0.25, seed=0)
    accel = AcceleratorModel(net, AcceleratorConfig(weight_bitwidth=8))
    print(sorted(HLSCodeGenerator(accel).generate()))
    """
)


def test_package_and_codegen_import_without_networkx():
    """``numpy`` is the one declared dependency: ``import repro``, the serving
    tier and HLS code generation must not need anything else installed."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "top.cpp" in done.stdout
