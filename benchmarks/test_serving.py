"""Serving-layer benchmark: dynamic batching vs sequential single-example calls.

Acceptance gate of the serving subsystem: at ``S=10`` MC samples on the
small LeNet spec, serving ``N=64`` concurrent single-example requests
through the dynamic batcher must sustain **>= 3x** the throughput of
answering the same 64 requests with sequential single-example
``predict_mc`` calls — the no-batching baseline every request-per-call
front-end pays.  The win comes from the same place as PR 1's folding: a
microbatch shares one backbone pass and one folded head pass across all
requests in it, instead of paying them per request.

A second test verifies backpressure under overload: flooding a bounded
queue must shed load (rejection policy) or finish with the queue depth
never exceeding its bound (awaiting policy) — never crash or deadlock.

Like the other timing gates, thresholds are generous for noisy shared
runners; see ROADMAP.md.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import BatcherConfig, ServerOverloaded, ServingConfig, ServingEngine

from . import reporting


NUM_SAMPLES = 10
NUM_REQUESTS = 64


def _small_lenet_spec():
    """The benchmark LeNet: 12x12 inputs, 5 classes (same scale as tests)."""
    return lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)


def _model() -> MultiExitBayesNet:
    return MultiExitBayesNet(
        _small_lenet_spec(),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0),
    )


def _best_seconds(fn, repeats: int = 5, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(min(times))


def test_dynamic_batching_3x_sequential_throughput():
    """Gate: served concurrent requests >= 3x sequential predict_mc calls."""
    model = _model()
    engine = model.engine
    x = np.random.default_rng(1).normal(size=(NUM_REQUESTS, 1, 12, 12))

    def sequential():
        # the no-batching baseline: one folded predict_mc per request
        for i in range(NUM_REQUESTS):
            engine.predict_mc(x[i : i + 1], num_samples=NUM_SAMPLES)

    async def served():
        # steady-state throughput of a long-lived server: start-up (event
        # loop, worker thread) is paid once per deployment, not per request
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=NUM_SAMPLES,
                batcher=BatcherConfig(
                    max_batch_size=32,
                    max_batch_latency=0.005,
                    max_queue_size=2 * NUM_REQUESTS,
                ),
            ),
        ) as server:
            await server.submit_many(x)  # warmup wave
            times = []
            for _ in range(5):
                start = time.perf_counter()
                await server.submit_many(x)
                times.append(time.perf_counter() - start)
            return float(min(times)), server.stats()

    t_sequential = _best_seconds(sequential)
    t_served, stats = asyncio.run(served())

    speedup = t_sequential / t_served
    print(
        f"\nserving (S={NUM_SAMPLES}, {NUM_REQUESTS} requests): "
        f"sequential {t_sequential * 1e3:.1f} ms "
        f"({NUM_REQUESTS / t_sequential:.0f} req/s), "
        f"served {t_served * 1e3:.1f} ms "
        f"({NUM_REQUESTS / t_served:.0f} req/s), "
        f"speedup {speedup:.2f}x, mean batch {stats.mean_batch_size:.1f}, "
        f"p95 latency {stats.latency_p95_s * 1e3:.1f} ms"
    )
    reporting.record(
        "serving_dynamic_batching",
        num_samples=NUM_SAMPLES,
        num_requests=NUM_REQUESTS,
        sequential_s=t_sequential,
        served_s=t_served,
        speedup_vs_sequential=speedup,
        throughput_rps=NUM_REQUESTS / t_served,
        mean_batch_size=stats.mean_batch_size,
        latency_p50_s=stats.latency_p50_s,
        latency_p95_s=stats.latency_p95_s,
    )
    assert stats.mean_batch_size > 1.0, "dynamic batching never formed a batch"
    assert speedup >= 3.0, (
        f"dynamic batching only {speedup:.2f}x over sequential predict_mc "
        f"({t_sequential * 1e3:.1f} ms vs {t_served * 1e3:.1f} ms)"
    )


def test_backpressure_under_overload():
    """Flooding a bounded queue sheds load cleanly or bounds the backlog."""
    model = _model()
    x = np.random.default_rng(2).normal(size=(96, 1, 12, 12))

    async def flood_rejecting():
        server = ServingEngine(
            model,
            ServingConfig(
                num_samples=NUM_SAMPLES,
                batcher=BatcherConfig(
                    max_batch_size=8,
                    max_batch_latency=0.001,
                    max_queue_size=8,
                    reject_on_full=True,
                ),
            ),
        )
        async with server:
            outcomes = await asyncio.gather(
                *(server.submit(example) for example in x), return_exceptions=True
            )
        return outcomes, server.stats()

    outcomes, stats = asyncio.run(flood_rejecting())
    rejected = sum(isinstance(o, ServerOverloaded) for o in outcomes)
    completed = sum(not isinstance(o, Exception) for o in outcomes)
    print(
        f"\noverload (reject): {completed} completed, {rejected} rejected "
        f"of {len(outcomes)}, queue peak {stats.queue_peak}"
    )
    assert rejected + completed == len(outcomes)
    assert rejected > 0, "96 requests against an 8-deep queue must shed load"
    assert completed > 0
    assert stats.requests_rejected == rejected
    assert stats.queue_peak <= 8, "more pending than max_queue_size allows"

    async def flood_awaiting():
        server = ServingEngine(
            model,
            ServingConfig(
                num_samples=NUM_SAMPLES,
                batcher=BatcherConfig(
                    max_batch_size=8,
                    max_batch_latency=0.001,
                    max_queue_size=8,
                    reject_on_full=False,
                ),
            ),
        )
        async with server:
            await server.submit_many(x)
        return server.stats()

    stats = asyncio.run(flood_awaiting())
    print(
        f"overload (await): {stats.requests_completed} completed, "
        f"queue peak {stats.queue_peak}"
    )
    assert stats.requests_completed == x.shape[0]
    assert stats.requests_rejected == 0
    assert stats.queue_peak <= 8, "bounded queue overflowed its backpressure bound"
