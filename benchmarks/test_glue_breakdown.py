"""Glue-time breakdown: where a served batch's non-compute time goes.

A served request's latency is compute plus *glue*: assembling payloads
into a batch, moving the batch to a worker, and fanning the output back
out into per-request results.  This microbenchmark times each stage in
isolation: ``np.stack`` assembly against the thread replica's
:class:`~repro.serving.batcher.BatchStager` pinned staging, and the ring
replica's **direct-to-ring** staging (payload rows land straight in the
:class:`~repro.serving.workers.ring.BatchRing` slot); then the compute
stages a batch pays for: a cold forward, the **content-keyed cache hit
path** (repeated bytes skip the backbone forward), and the **stochastic
suffix** at the served width, ``MCDropout.fold`` then the stacked GEMM
(its speed against tile -> mask -> GEMM is gated in
``test_fused_suffix.py``).  All of it
lands in ``BENCH_serving.json`` so the report documents where the time
goes stage by stage.

The *glue budget* is gated: assembly + transport on the hot path (one
term, since direct-to-ring staging makes assembly the transport) must fit
in :data:`GLUE_BUDGET_US` per batch.  The other stages stay ungated:
individually they are host-dependent noise; the sum is the promise.

A second gated figure is the activation cache's **miss cost**: one cold
lookup + store (``cache_miss_us``) on the served LeNet batch and on
``conv_mc``'s ResNet batch, against a full cache of other batches.  The
cache matches inputs by their bytes — one ``tobytes`` copy and comparisons
that stop at the first differing byte — so a miss must stay within
:data:`CACHE_MISS_DIGEST_SHARE` of a blake2b digest of the same batch (the
key the cache once computed for every batch it served).

A third gated figure covers the one stage that is a *wait* rather than
work: ``batch_flush_overshoot_us``, how much later than its
``max_batch_latency`` a lone request's partial batch is dispatched.  The
event loop's selector timers are whole milliseconds rounded up, so a
0.25 ms flush handed to the selector overshot by ~900 us; the batcher's
yield-polled sub-millisecond wait must keep it within
:data:`FLUSH_OVERSHOOT_BUDGET_US`.  The figure at the 2 ms default (a
selector wait) is recorded alongside, ungated.
"""

from __future__ import annotations

import asyncio
import hashlib
import inspect
import itertools
import statistics
import time

import numpy as np

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.inference.engine import InferenceEngine, _ActivationCache
from repro.nn.architectures import lenet5_spec
from repro.nn.context import ForwardContext
from repro.nn.layers import Dense, MCDropout
from repro.serving.batcher import BatchStager, DynamicBatcher
from repro.serving.workers.base import assemble_results, compute_batch_array
from repro.serving.workers.ring import BatchRing

from . import reporting
from .timing import best_seconds_per_call

BATCH = 32
SHAPE = (1, 12, 12)
NUM_SAMPLES = 8
LOOPS = 200
#: per-batch glue ceiling on the hot path (assemble + transport)
GLUE_BUDGET_US = 40.0
#: how late a 0.25 ms partial-batch flush may fire
FLUSH_OVERSHOOT_BUDGET_US = 300.0
#: a cold cache lookup + store, as a share of a blake2b of the same batch
CACHE_MISS_DIGEST_SHARE = 0.25
#: the served batches: the demo LeNet's and conv_mc's ResNet's
CACHE_MISS_BATCHES = {"lenet": (BATCH,) + SHAPE, "resnet": (16, 3, 16, 16)}


def test_glue_breakdown_records_per_stage_times():
    payloads = list(np.random.default_rng(0).normal(size=(BATCH,) + SHAPE))
    batch = np.stack(payloads)

    # -- assemble: per-batch np.stack allocation vs pinned staging buffer --
    stager = BatchStager(BATCH, SHAPE)
    t_stack = best_seconds_per_call(lambda: np.stack(payloads), loops=LOOPS)
    t_stage = best_seconds_per_call(lambda: stager.stage(payloads), loops=LOOPS)

    # -- transport: ring slot stage + view -------------------------------- #
    ring = BatchRing.create(slots=1, request_bytes=batch.nbytes, response_bytes=4096)

    def _direct_to_ring():
        # payload rows land straight in the shm slot
        dest = ring.stage_request(0, batch.shape)
        for i, payload in enumerate(payloads):
            dest[i] = payload
        return ring.read_request(0)

    try:
        t_ring_direct = best_seconds_per_call(_direct_to_ring, loops=LOOPS)
    finally:
        ring.release()

    # -- compute: cold forward vs content-keyed cache hit ----------------- #
    model = MultiExitBayesNet(
        lenet5_spec(input_shape=SHAPE, num_classes=10, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0),
    )
    engine = model.engine

    def _compute_cold():
        engine.invalidate_cache()
        return compute_batch_array(engine, 0, batch, NUM_SAMPLES, None)

    def _compute_cached():
        # same bytes every call: the deterministic backbone prefix hits
        return compute_batch_array(engine, 0, batch, NUM_SAMPLES, None)

    out = _compute_cold()
    t_compute_cold = best_seconds_per_call(_compute_cold, loops=5)
    t_compute_hit = best_seconds_per_call(_compute_cached, loops=5)
    hits, misses = engine.cache_stats()
    assert hits > 0, "cache-hit stage never hit; the timing would be a lie"

    # -- disassemble: per-request results from the batch's raw arrays ----- #
    t_disassemble = best_seconds_per_call(lambda: assemble_results(out), loops=50)

    # -- stochastic suffix (fold -> GEMM) at the served width ------------- #
    rng = np.random.default_rng(1)
    features = 256
    dense = Dense(10, name="classifier")
    dense.build((features,), rng)
    mcd = MCDropout(0.25, seed=3, name="mcd0")
    mcd.build((features,), rng)
    prefix = rng.normal(size=(BATCH, features))

    def _suffix():
        ctx = ForwardContext()
        return dense.forward_folded(mcd.fold(prefix, NUM_SAMPLES, ctx), NUM_SAMPLES)

    t_suffix = best_seconds_per_call(_suffix, loops=20)

    # glue = assemble + transport; disassembly and compute are recorded
    # alongside but are not part of the glue sum.  With direct-to-ring
    # staging, assembly *is* the transport: one sum term.
    glue_hotpath = t_ring_direct
    print(
        f"\nglue breakdown (batch={BATCH}x{SHAPE}, S={NUM_SAMPLES}): "
        f"assemble stack {t_stack * 1e6:.1f} us vs stage {t_stage * 1e6:.1f} us; "
        f"transport direct ring {t_ring_direct * 1e6:.1f} us; "
        f"compute cold {t_compute_cold * 1e3:.2f} ms vs cache hit "
        f"{t_compute_hit * 1e3:.2f} ms; "
        f"disassemble {t_disassemble * 1e6:.1f} us; "
        f"suffix fold {t_suffix * 1e6:.1f} us; "
        f"glue hot path {glue_hotpath * 1e6:.1f} us (budget {GLUE_BUDGET_US} us)"
    )
    reporting.record(
        "serving_glue_breakdown",
        batch=BATCH,
        num_samples=NUM_SAMPLES,
        assemble_stack_us=t_stack * 1e6,
        assemble_staged_us=t_stage * 1e6,
        transport_ring_direct_us=t_ring_direct * 1e6,
        compute_cold_ms=t_compute_cold * 1e3,
        compute_cache_hit_ms=t_compute_hit * 1e3,
        disassemble_us=t_disassemble * 1e6,
        suffix_fold_us=t_suffix * 1e6,
        glue_hotpath_us=glue_hotpath * 1e6,
        glue_budget_us=GLUE_BUDGET_US,
    )
    # staging actually engaged: the view is the pinned buffer's head
    np.testing.assert_array_equal(stager.stage(payloads), batch)
    # the strict glue gate: the hot path fits the per-batch budget
    assert glue_hotpath * 1e6 <= GLUE_BUDGET_US, (
        f"hot-path glue {glue_hotpath * 1e6:.1f} us exceeds the "
        f"{GLUE_BUDGET_US} us per-batch budget"
    )
    # and the cache-hit path must actually be cheaper than a cold forward
    assert t_compute_hit < t_compute_cold


def _cache_miss_seconds(shape) -> float:
    """One cold ``get`` + ``put`` against a full cache of other batches.

    Cycling one batch more than the cache holds makes every lookup a miss
    and every store an eviction — the steady state of serving fresh bytes.
    """
    cache = _ActivationCache(
        inspect.signature(InferenceEngine).parameters["cache_size"].default
    )
    rng = np.random.default_rng(2)
    batches = [rng.normal(size=shape) for _ in range(cache.maxsize + 1)]
    acts = [np.empty(0)]
    turns = itertools.cycle(batches)

    def _miss():
        x = next(turns)
        if cache.get(x, 0) is None:
            cache.put(x, 0, acts)

    seconds = best_seconds_per_call(_miss, loops=LOOPS)
    assert cache.hits == 0, "a cold lookup hit; the timing would be a lie"
    return seconds


def test_cache_miss_costs_a_fraction_of_a_digest():
    miss_us, digest_us = {}, {}
    for name, shape in CACHE_MISS_BATCHES.items():
        x = np.random.default_rng(3).normal(size=shape)
        miss_us[name] = _cache_miss_seconds(shape) * 1e6
        digest_us[name] = (
            best_seconds_per_call(
                lambda: hashlib.blake2b(x, digest_size=16).digest(), loops=LOOPS
            )
            * 1e6
        )
    print(
        "\ncache miss (cold get + put) vs blake2b of the batch: "
        + "; ".join(
            f"{name} {CACHE_MISS_BATCHES[name]} {miss_us[name]:.1f} us vs "
            f"{digest_us[name]:.1f} us"
            for name in CACHE_MISS_BATCHES
        )
    )
    reporting.record(
        "serving_glue_breakdown",
        **{f"cache_miss_{name}_us": us for name, us in miss_us.items()},
        **{f"cache_miss_digest_{name}_us": us for name, us in digest_us.items()},
    )
    for name in CACHE_MISS_BATCHES:
        assert miss_us[name] <= CACHE_MISS_DIGEST_SHARE * digest_us[name], (
            f"a cold cache lookup + store on the {name} batch takes "
            f"{miss_us[name]:.1f} us, over {CACHE_MISS_DIGEST_SHARE}x the "
            f"{digest_us[name]:.1f} us blake2b of the same bytes"
        )


def _median_flush_overshoot_us(max_batch_latency, requests=100):
    """Median lateness of a lone request's flush through a bare batcher."""
    dispatched_at = []

    async def dispatch(payloads):
        dispatched_at.append(time.perf_counter())
        return payloads

    async def main():
        submitted_at = []
        async with DynamicBatcher(
            dispatch, max_batch_size=8, max_batch_latency=max_batch_latency
        ) as batcher:
            for i in range(requests):
                submitted_at.append(time.perf_counter())
                await batcher.submit(i)
        return submitted_at

    submitted_at = asyncio.run(main())
    assert len(dispatched_at) == requests  # every request flushed alone
    return statistics.median(
        (done - start - max_batch_latency) * 1e6
        for start, done in zip(submitted_at, dispatched_at)
    )


def test_batch_flush_overshoot_fits_budget():
    overshoot = _median_flush_overshoot_us(0.00025)
    overshoot_default = _median_flush_overshoot_us(0.002)
    print(
        f"\nbatch flush overshoot (median of 100 lone requests): "
        f"{overshoot:.0f} us at 0.25 ms (budget {FLUSH_OVERSHOOT_BUDGET_US:.0f} us), "
        f"{overshoot_default:.0f} us at the 2 ms default"
    )
    reporting.record(
        "serving_glue_breakdown",
        batch_flush_overshoot_us=overshoot,
        batch_flush_overshoot_default_us=overshoot_default,
        batch_flush_overshoot_budget_us=FLUSH_OVERSHOOT_BUDGET_US,
    )
    assert overshoot >= 0, "a partial batch was flushed before its time"
    assert overshoot <= FLUSH_OVERSHOOT_BUDGET_US, (
        f"a 0.25 ms flush fires {overshoot:.0f} us late, over the "
        f"{FLUSH_OVERSHOOT_BUDGET_US:.0f} us budget (selector timers round "
        "up to whole milliseconds; the sub-millisecond wait must not use one)"
    )
