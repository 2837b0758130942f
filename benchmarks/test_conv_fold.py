"""Conv benchmarks: the planned prefix vs the layer-by-layer one it replaced.

The deterministic backbone used to run ``Layer.forward`` layer by layer:
fresh column and padded buffers per convolution, four full-size BatchNorm
temporaries and a ReLU temporary per block, every cache saved into the
context for a backward pass inference never runs.  The prefix plan
(:mod:`repro.inference.plan`) gathers into one arena and applies
bias/BN/ReLU/residual-add in place on each GEMM's own output.  Both sides
share the one single-pass ``im2col`` and run the same GEMMs, so the ratio
isolates what the plan itself removes and is hardware independent.

Gates, at the ``conv_mc`` geometry of the repo benchmark (4-exit
ResNet-10 at width 0.125 on 16x16 inputs, N = 16): the planned prefix is
bit-identical to the layer-by-layer one, at least ``PLAN_MIN_SPEEDUP``
faster, and a warm call's peak traced allocation stays within its GEMM
results (the exit activations are four of them) — i.e. the plan allocates
nothing but what it returns or feeds to the next GEMM.

The same two gates at the geometry of the other three workloads (the demo
LeNet on 12x12 inputs, N = 32), where the layer-by-layer side also pays
for both max-pools' column matrix, ``argmax`` and saved cache: at least
``LENET_PLAN_MIN_SPEEDUP`` faster, allocating its GEMM results plus one
output per pool.  ``MaxPool2D.forward`` runs the plan's running maximum
itself (plus a ``uint8`` index), so the layer-by-layer side runs its pools
through the column oracle (``tests/nn/column_pool.py``): the reference and
the timed baseline are the path the plan's pool step replaced, not the
step itself.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec, resnet_spec
from repro.nn.context import ForwardContext
from repro.nn.layers import Conv2D, MaxPool2D, ResidualBlock
from tests.nn.column_pool import column_path

from . import reporting
from .timing import best_seconds_each

REPEATS = 20

#: planned vs layer-by-layer prefix.  Issue 16 asked for 1.3x here; that is
#: NOT met: measured 1.12-1.31x over 24 runs on the 2-vCPU dev box
#: (1.20-1.27x with BLAS pinned).  Both sides run the one single-pass im2col
#: and the same GEMMs, so what is left to win in a warm, single-threaded
#: loop is the arena and the in-place epilogue, ~0.8 of ~5.6 ms.  What
#: justifies the plan is end to end (CHANGES.md, PR 16): ten alternating
#: 24 s pairs on `conv_mc`, same tree with vs without planned steps,
#: +24 % throughput_rps (10/10) and -6 % peak_rss_mb (10/10).  The gate
#: here says "the plan must pay for itself", not how much.
PLAN_MIN_SPEEDUP = 1.05
PLAN_BATCH = 16

#: the LeNet prefix, whose two max-pools the plan runs as the layer's running
#: maximum without an index, against layers whose pools gather columns
#: (`column_path`): 1.77-2.01x over ten runs with BLAS pinned (`make
#: parallel`), 1.85-1.91x unpinned, on the 2-vCPU dev box; a plan whose
#: pool steps gather columns too reads 0.97-1.02x.  A pool step that records
#: an index costs only ~0.05 ms here, so `test_rule7_pool_step_records_no_index`
#: pins that instead.
LENET_PLAN_MIN_SPEEDUP = 1.5
LENET_PLAN_BATCH = 32


def _conv_mc_model() -> MultiExitBayesNet:
    """The ``conv_mc`` workload's model (benchmarks/e2e/workloads.py)."""
    spec = resnet_spec("resnet10", (3, 16, 16), width_multiplier=0.125)
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=4, mcd_layers_per_exit=1, seed=0)
    )


def _cold_engine(model):
    engine = model.engine.replicate()
    engine._cache.maxsize = 0  # every call is a miss: time the prefix itself
    return engine


def _demo_lenet_model() -> MultiExitBayesNet:
    """The model of the three LeNet workloads (benchmarks/e2e/workloads.py)."""
    spec = lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )


def _planned_vs_layer_by_layer(
    model, section: str, arch: str, batch: int, min_speedup: float
):
    """Time the planned prefix against ``Layer.forward`` with column-path
    pools; both bit-identical."""
    engine = _cold_engine(model)
    rng = np.random.default_rng(2)
    shape = model.backbone.input_shape
    batches = [rng.normal(size=(batch,) + shape) for _ in range(16)]
    ctx = ForwardContext()

    for x in batches[:2]:
        planned_acts = engine.backbone_activations(x)
        with column_path():
            layer_acts = model.backbone_activations(x, ctx=ctx)
        for got, want in zip(planned_acts, layer_acts):
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()

    def planned():
        for x in batches:
            engine.backbone_activations(x)

    def layer_by_layer():
        with column_path():
            for x in batches:
                model.backbone_activations(x, ctx=ctx)

    t_plan, t_layer = (
        t / len(batches)
        for t in best_seconds_each(planned, layer_by_layer, repeats=REPEATS)
    )

    speedup = t_layer / t_plan
    print(
        f"\nprefix plan ({arch}, N={batch}): "
        f"layer-by-layer {t_layer * 1e3:.2f} ms, planned {t_plan * 1e3:.2f} ms "
        f"({speedup:.2f}x), bit-exact"
    )
    reporting.record(
        section,
        arch=arch,
        batch=batch,
        layer_by_layer_s=t_layer,
        planned_s=t_plan,
        prefix_plan_speedup=speedup,
        bit_exact=True,
    )
    assert speedup >= min_speedup, (
        f"planned {arch} prefix only {speedup:.2f}x over layer-by-layer "
        f"({t_layer * 1e3:.2f} ms vs {t_plan * 1e3:.2f} ms), gate {min_speedup}x — "
        "a column, BatchNorm/ReLU or pooling temporary is back on the planned side"
    )


@pytest.mark.timeout(300)
def test_planned_prefix_beats_layer_by_layer_prefix():
    """Gate: planned prefix >= PLAN_MIN_SPEEDUP x layer-by-layer, bit-exact."""
    _planned_vs_layer_by_layer(
        _conv_mc_model(),
        "prefix_plan",
        "resnet10_wm0.125",
        PLAN_BATCH,
        PLAN_MIN_SPEEDUP,
    )


@pytest.mark.timeout(300)
def test_planned_lenet_prefix_beats_layer_by_layer_prefix():
    """Gate: the pooled LeNet prefix >= LENET_PLAN_MIN_SPEEDUP x, bit-exact."""
    _planned_vs_layer_by_layer(
        _demo_lenet_model(),
        "prefix_plan_lenet",
        "lenet5_wm0.5",
        LENET_PLAN_BATCH,
        LENET_PLAN_MIN_SPEEDUP,
    )


def _warm_call_allocation(model, section: str, arch: str, batch: int):
    """Traced bytes of one warm planned prefix vs what its steps may allocate:
    every GEMM result, and one output per max-pool."""
    engine = _cold_engine(model)
    rng = np.random.default_rng(3)
    shape = model.backbone.input_shape
    warm, x = (rng.normal(size=(batch,) + shape) for _ in range(2))
    engine.backbone_activations(warm)  # sizes the arena, compiles the plan

    producers = []
    for layer in model.backbone.layers:
        subs = layer.sublayers() if isinstance(layer, ResidualBlock) else [layer]
        producers += [sub for sub in subs if isinstance(sub, (Conv2D, MaxPool2D))]
    elements = [batch * int(np.prod(p.output_shape)) for p in producers]
    step_bytes = 8 * sum(elements)
    # relu_'s bool mask, and the buffer NumPy casts it through to multiply
    relu_scratch = max(elements) + 8 * np.getbufsize()

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        acts = engine.backbone_activations(x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out_bytes = sum(a.nbytes for a in acts)
    slack = 16 * 1024  # views, the step list walk, small per-channel vectors

    print(
        f"\nprefix plan warm call ({arch}, N={batch}): peak "
        f"{(peak - before) / 1024:.0f} KiB, held {(held - before) / 1024:.0f} KiB, "
        f"outputs {out_bytes / 1024:.0f} KiB, all GEMM and pool results "
        f"{step_bytes / 1024:.0f} KiB"
    )
    reporting.record(
        section,
        warm_call_peak_bytes=peak - before,
        warm_call_held_bytes=held - before,
        outputs_bytes=out_bytes,
        gemm_results_bytes=step_bytes,
    )
    assert held - before <= out_bytes + slack, "something besides the outputs survived"
    assert peak - before <= step_bytes + relu_scratch + slack, (
        "a warm planned prefix allocated more than its GEMM and pool results: "
        "a column, padded or BatchNorm temporary is back"
    )


def test_warm_planned_prefix_allocates_only_its_gemm_results():
    """A warm call's peak allocation fits inside the GEMM outputs it made
    (ResNet) plus one output per pool (LeNet)."""
    _warm_call_allocation(
        _conv_mc_model(), "prefix_plan", "resnet10_wm0.125", PLAN_BATCH
    )
    _warm_call_allocation(
        _demo_lenet_model(), "prefix_plan_lenet", "lenet5_wm0.5", LENET_PLAN_BATCH
    )
