"""Microbenchmark: per-sample loops vs the sample-folded inference engine.

Acceptance gate of the engine refactor: at ``S=10`` MC samples and a batch
of ``N=64`` on the small LeNet spec, the folded engine must be >= 3x faster
than the per-sample loop — i.e. than paying one full forward pass per
Monte-Carlo sample, the ``S * (FLOP_main + FLOP_exit)`` baseline of Eq. 1
that the paper (and this engine) replaces with ``FLOP_main +
ceil(S/E) * FLOP_exit`` evaluated as one folded pass.

All timed engine runs use ``cache_size=0`` (or invalidate between calls) so
the numbers measure the folding + backbone-sharing refactor itself, not the
engine's repeated-input activation cache.  Two finer-grained guards pin
down where the win comes from and that nothing regressed against the old
(already backbone-caching) loops, which are kept verbatim in
``tests/inference/reference_loops.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import (
    MultiExitBayesNet,
    MultiExitConfig,
    single_exit_bayesnet,
)
from repro.inference.engine import InferenceEngine
from repro.inference.plan import PrefixPlan
from repro.nn.architectures import lenet5_spec
from repro.nn.context import ForwardContext
from repro.nn.layers.activations import softmax
from tests.inference.folded_harness import folded_mc_sample, reseed_mcd
from tests.inference.reference_loops import looped_predict_mc

NUM_SAMPLES = 10
BATCH = 64


def _small_lenet_spec():
    """The benchmark LeNet: 12x12 inputs, 5 classes (same scale as tests)."""
    return lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)


def _median_seconds(fn, repeats: int = 25, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _report(label: str, t_base: float, t_folded: float) -> float:
    speedup = t_base / t_folded
    print(
        f"\n{label} (S={NUM_SAMPLES}, N={BATCH}): "
        f"baseline {t_base * 1e3:.2f} ms, folded {t_folded * 1e3:.2f} ms, "
        f"speedup {speedup:.2f}x"
    )
    return speedup


def test_folded_sampler_3x_faster_than_per_sample_forward_passes():
    """Acceptance gate: folded engine vs one full forward pass per MC sample."""
    net = single_exit_bayesnet(_small_lenet_spec(), num_mcd_layers=1, seed=0)
    reseed_mcd(net, 0)
    plan, ctx = PrefixPlan(net), ForwardContext()
    x = np.random.default_rng(1).normal(size=(BATCH, 1, 12, 12))

    def per_sample_loop():
        return np.stack(
            [
                softmax(net.forward(x, training=False), axis=-1)
                for _ in range(NUM_SAMPLES)
            ]
        )

    t_folded = _median_seconds(
        lambda: folded_mc_sample(net, x, NUM_SAMPLES, ctx, plan)
    )
    t_loop = _median_seconds(per_sample_loop)
    speedup = _report("single-exit: per-sample passes vs folded", t_loop, t_folded)
    assert speedup >= 3.0, (
        f"folded sampler only {speedup:.2f}x faster than the per-sample "
        f"forward-pass loop ({t_loop * 1e3:.2f} ms vs {t_folded * 1e3:.2f} ms)"
    )


def test_folded_predict_mc_3x_faster_than_per_pass_reruns():
    """Multi-exit gate: folded engine vs re-running backbone+heads every pass."""
    config = dict(
        num_exits=2,
        mcd_layers_per_exit=1,
        dropout_rate=0.25,
        default_mc_samples=NUM_SAMPLES,
        seed=0,
    )
    model = MultiExitBayesNet(_small_lenet_spec(), MultiExitConfig(**config))
    engine = InferenceEngine(model, cache_size=0)  # cold backbone every call
    x = np.random.default_rng(0).normal(size=(BATCH, 1, 12, 12))
    passes = math.ceil(NUM_SAMPLES / model.num_exits)

    def per_pass_reruns():
        flat = []
        for _ in range(passes):
            activations = model.backbone_activations(x, training=False)
            for head, act in zip(model.exits, activations):
                flat.append(softmax(head.forward(act, training=False), axis=-1))
        return np.stack(flat[:NUM_SAMPLES])

    t_folded = _median_seconds(lambda: engine.predict_mc(x, NUM_SAMPLES))
    t_loop = _median_seconds(per_pass_reruns)
    speedup = _report("multi-exit: per-pass full reruns vs folded", t_loop, t_folded)
    assert speedup >= 3.0, (
        f"folded predict_mc only {speedup:.2f}x faster than per-pass full "
        f"reruns ({t_loop * 1e3:.2f} ms vs {t_folded * 1e3:.2f} ms)"
    )


def test_folded_head_sampling_beats_looped_heads_on_shared_activations():
    """Isolate the MC-dropout hot path: both sides get precomputed activations.

    This measures exactly what the fold vectorises — the ``ceil(S/E)``
    stochastic head passes — without the shared backbone cost diluting the
    ratio.  The legacy loop here is the pre-refactor ``predict_mc`` body.
    """
    config = dict(
        num_exits=2,
        mcd_layers_per_exit=1,
        dropout_rate=0.25,
        default_mc_samples=NUM_SAMPLES,
        seed=0,
    )
    model = MultiExitBayesNet(_small_lenet_spec(), MultiExitConfig(**config))
    engine = InferenceEngine(model, cache_size=0)
    x = np.random.default_rng(0).normal(size=(BATCH, 1, 12, 12))
    passes = math.ceil(NUM_SAMPLES / model.num_exits)
    activations = model.backbone_activations(x, training=False)

    def looped_heads():
        flat = []
        for _ in range(passes):
            for head, act in zip(model.exits, activations):
                flat.append(softmax(head.forward(act, training=False), axis=-1))
        return np.stack(flat[:NUM_SAMPLES])

    def folded_heads():
        return [
            engine._head_mc_probs(head, act, passes, engine.ctx)
            for head, act in zip(model.exits, activations)
        ]

    t_folded = _median_seconds(folded_heads)
    t_loop = _median_seconds(looped_heads)
    speedup = _report("head sampling stage: looped vs folded", t_loop, t_folded)
    assert speedup >= 1.5


def test_engine_no_regression_vs_legacy_cached_loop():
    """Honest end-to-end check against the old (already backbone-caching) loop.

    The legacy ``predict_mc`` cached backbone activations within a call, so
    with a cold activation cache most of the remaining runtime is the shared
    backbone — the folded engine must simply never be slower.  (Warm-cache
    serving of repeated inputs is far faster still, but that is the cache,
    not the fold, so it is not gated here.)
    """
    config = dict(
        num_exits=2,
        mcd_layers_per_exit=1,
        dropout_rate=0.25,
        default_mc_samples=NUM_SAMPLES,
        seed=0,
    )
    folded_model = MultiExitBayesNet(_small_lenet_spec(), MultiExitConfig(**config))
    looped_model = MultiExitBayesNet(_small_lenet_spec(), MultiExitConfig(**config))
    engine = InferenceEngine(folded_model, cache_size=0)
    x = np.random.default_rng(0).normal(size=(BATCH, 1, 12, 12))

    # same seeds => the two paths must agree bit-for-bit before we time them
    np.testing.assert_array_equal(
        engine.predict_mc(x, NUM_SAMPLES).sample_probs,
        looped_predict_mc(looped_model, x, NUM_SAMPLES).sample_probs,
    )

    t_folded = _median_seconds(lambda: engine.predict_mc(x, NUM_SAMPLES))
    t_loop = _median_seconds(lambda: looped_predict_mc(looped_model, x, NUM_SAMPLES))
    speedup = _report(
        "multi-exit: legacy cached loop vs folded (cold)", t_loop, t_folded
    )
    assert speedup >= 0.85, (
        f"folded engine regressed vs the legacy cached loop: {speedup:.2f}x"
    )
