"""The stochastic suffix's clone step: gated microbenchmark.

The hot serving suffix starts with an ``MCDropout -> Dense`` pair that
turns the cached ``(N, F)`` prefix into ``S`` Monte-Carlo logits.
Materialised, it tiles the prefix to ``(S·N, F)`` and then masks the tile
— ``fold_batch``, ``MCDropout.forward`` (Bernoulli compare, ``astype``,
``/ keep_prob`` and ``x * scaled``, each a full-width temporary) — before
the stacked per-sample GEMM.  At serving widths every temporary is
megabytes, an ``mmap``-backed allocation whose page faults dominate.
:meth:`repro.nn.layers.dropout.MCDropout.fold` is the clone step and
the mask in one: the uniform draw is the only full-width allocation, scaled
in place by a bit-exact multiply-by-reciprocal, and the prefix is
multiplied into it broadcast over ``S``.

This benchmark times the *entire* suffix both ways from the ``(N, F)``
prefix (RNG draw included — nothing is hoisted) and gates the speedup at
**>= 1.3x**.  Bit-exactness of the fold is pinned separately in
``tests/inference/test_fused_suffix.py``; a cheap identity assert here
keeps the timed comparison honest.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.context import ForwardContext
from repro.nn.layers import Dense, MCDropout
from tests.inference.folded_harness import fold_batch

from . import reporting

#: serving-shaped suffix: S MC samples x a microbatch of N examples over a
#: flattened F-wide feature vector (matches the paper's S=10 sampling depth)
NUM_SAMPLES = 10
BATCH = 64
FEATURES = 2048
UNITS = 16
RATE = 0.25
GATE = 1.3


def _best_seconds_per_call(fn, loops=10, repeats=5):
    fn()  # warmup
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append((time.perf_counter() - start) / loops)
    return float(min(times))


def test_suffix_fold_speedup_gate():
    rng = np.random.default_rng(0)
    dense = Dense(UNITS, name="classifier")
    dense.build((FEATURES,), rng)
    mcd = MCDropout(RATE, seed=3, name="mcd0")
    mcd.build((FEATURES,), rng)
    prefix = rng.normal(size=(BATCH, FEATURES))

    def materialised():
        ctx = ForwardContext()
        masked = mcd.forward(fold_batch(prefix, NUM_SAMPLES), ctx=ctx)
        return dense.forward_folded(masked, NUM_SAMPLES)

    def folded():
        ctx = ForwardContext()
        return dense.forward_folded(mcd.fold(prefix, NUM_SAMPLES, ctx), NUM_SAMPLES)

    # the timed paths must be computing the same thing, bit for bit
    np.testing.assert_array_equal(materialised(), folded())

    t_materialised = _best_seconds_per_call(materialised)
    t_folded = _best_seconds_per_call(folded)
    speedup = t_materialised / t_folded
    print(
        f"\nsuffix fold (S={NUM_SAMPLES}, N={BATCH}, F={FEATURES}, U={UNITS}): "
        f"tile -> mask -> GEMM {t_materialised * 1e3:.2f} ms vs fold -> GEMM "
        f"{t_folded * 1e3:.2f} ms -> {speedup:.2f}x (gate >= {GATE}x)"
    )
    reporting.record(
        "suffix_fold",
        num_samples=NUM_SAMPLES,
        batch=BATCH,
        features=FEATURES,
        units=UNITS,
        materialised_ms=t_materialised * 1e3,
        folded_ms=t_folded * 1e3,
        speedup_fold_vs_materialised=speedup,
    )
    assert speedup >= GATE, (
        f"the suffix fold must be >= {GATE}x over the materialised "
        f"tile -> mask -> GEMM chain, measured {speedup:.2f}x"
    )
