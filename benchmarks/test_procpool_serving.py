"""Process-pool serving benchmark: the gate threads cannot pass.

PR 4's thread replicas scale only while NumPy's GIL-released GEMMs are
large enough to hide the Python glue between them.  On a *small* model —
exactly the regime of the paper's edge workloads — the glue dominates,
every worker thread serialises on the GIL, and K=4 threads flatline near
1x.  The process backend exists to lift that ceiling: K worker processes
over one shared-memory parameter arena, each running the identical folded
compute path on its own core.

Acceptance gate: on a host with >= 4 cores, ``worker_backend="process"``
with K=4 must sustain **>= 2.5x** the throughput of the identically
configured K=1 server on the glue-bound small-model flood.  The benchmark
skips below 4 cores (processes would only time-slice) and records the
thread-backend K=4 number alongside, so ``BENCH_serving.json`` documents
*why* the process backend earns its complexity.

BLAS must be pinned (``OMP_NUM_THREADS=1`` etc., as the ``parallel`` CI
job does) so library-internal threading does not hand the K=1 baseline
all the cores for free.

A second, hardware-independent gate needs only one CPU to spare: under a
closed-loop flood one ring worker must spend **>= 80 %** of its time
inside batches (``ServingStats.worker_busy_share``).  That is what the
second ring slot and the worker's own CPU are for — the next batch is
already staged when the worker has answered, and the loop thread its
reply wakes runs elsewhere; with one slot and no placement the same flood
left the worker 61-63 % busy.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import BatcherConfig, ServingConfig, ServingEngine

from . import reporting


NUM_SAMPLES = 8
NUM_REQUESTS = 96
MAX_BATCH = 4
WORKERS = 4

needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"process-pool throughput needs >= {WORKERS} cores "
    f"(host has {os.cpu_count()})",
)


def _model() -> MultiExitBayesNet:
    # deliberately *small*: the per-batch GEMMs are far too short to hide
    # the Python glue, so thread workers flatline and only true multi-core
    # execution can win — the workload the process backend exists for
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=10, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0),
    )


def _serve_flood_seconds(
    backend: str,
    workers: int,
    x: np.ndarray,
    repeats: int = 3,
) -> float:
    """Best wall time to serve all of ``x`` concurrently with K workers."""
    model = _model()

    async def main() -> float:
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=workers,
                worker_backend=backend,
                batcher=BatcherConfig(
                    max_batch_size=MAX_BATCH,
                    max_batch_latency=0.002,
                    max_queue_size=2 * NUM_REQUESTS,
                ),
            ),
        ) as server:
            await server.submit_many(x)  # warmup wave (workers, caches)
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                await server.submit_many(x)
                times.append(time.perf_counter() - start)
            return float(min(times))

    return asyncio.run(main())


@needs_cores
@pytest.mark.timeout(300)
def test_four_process_workers_at_least_2p5x_one_worker():
    """Gate: K=4 process serving >= 2.5x K=1 on the glue-bound flood."""
    x = np.random.default_rng(3).normal(size=(NUM_REQUESTS, 1, 12, 12))

    t_k1 = _serve_flood_seconds("thread", 1, x)
    t_threads = _serve_flood_seconds("thread", WORKERS, x)
    t_procs = _serve_flood_seconds("process", WORKERS, x)

    speedup_procs = t_k1 / t_procs
    speedup_threads = t_k1 / t_threads
    rps_k1 = NUM_REQUESTS / t_k1
    rps_procs = NUM_REQUESTS / t_procs
    print(
        f"\nprocpool serving (S={NUM_SAMPLES}, {NUM_REQUESTS} requests, "
        f"batch<={MAX_BATCH}): K=1 {t_k1 * 1e3:.1f} ms ({rps_k1:.0f} req/s), "
        f"K={WORKERS} threads {t_threads * 1e3:.1f} ms "
        f"({speedup_threads:.2f}x), K={WORKERS} processes "
        f"{t_procs * 1e3:.1f} ms ({rps_procs:.0f} req/s, "
        f"{speedup_procs:.2f}x) on {os.cpu_count()} cores"
    )
    reporting.record(
        "procpool_serving",
        workers=WORKERS,
        num_samples=NUM_SAMPLES,
        num_requests=NUM_REQUESTS,
        k1_s=t_k1,
        k4_threads_s=t_threads,
        k4_procs_s=t_procs,
        throughput_k1_rps=rps_k1,
        throughput_k4_procs_rps=rps_procs,
        speedup_k4_threads_vs_k1=speedup_threads,
        speedup_k4_procs_vs_k1=speedup_procs,
        cpu_count=os.cpu_count(),
    )
    assert speedup_procs >= 2.5, (
        f"4 process workers only {speedup_procs:.2f}x over 1 worker "
        f"({t_k1 * 1e3:.1f} ms vs {t_procs * 1e3:.1f} ms; threads managed "
        f"{speedup_threads:.2f}x) — shared-memory replicas should scale "
        "past the GIL on the glue-bound workload"
    )


needs_spare_cpu = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="worker placement needs sched_setaffinity and a second allowed CPU",
)


@needs_spare_cpu
@pytest.mark.timeout(300)
def test_one_ring_worker_stays_busy_under_a_closed_loop_flood():
    """Gate: 64 closed-loop callers keep one ring worker >= 80 % busy."""
    callers, seconds = 64, 3.0
    x = np.random.default_rng(9).normal(size=(256, 1, 12, 12))

    async def main():
        async with ServingEngine(
            _model(),
            ServingConfig(
                num_samples=10,
                workers=1,
                worker_backend="process",
                batcher=BatcherConfig(max_batch_size=32, max_queue_size=1024),
            ),
        ) as server:
            stop_at = time.perf_counter() + seconds

            async def caller(i: int) -> None:
                while time.perf_counter() < stop_at:
                    await server.submit(x[i % len(x)])
                    i += callers

            await asyncio.gather(*(caller(i) for i in range(callers)))
            return server.stats()

    stats = asyncio.run(main())
    print(
        f"\none ring worker, {callers} closed-loop callers, {seconds:.0f} s: "
        f"busy {stats.worker_busy_share:.1%} of its time, "
        f"{stats.throughput_rps:.0f} req/s, mean batch {stats.mean_batch_size:.1f}"
    )
    reporting.record(
        "procpool_serving",
        k1_ring_worker_busy_share=stats.worker_busy_share,
        throughput_k1_ring_flood_rps=stats.throughput_rps,
    )
    assert stats.worker_crashes == 0
    assert stats.worker_busy_share >= 0.80, (
        f"the worker computed only {stats.worker_busy_share:.1%} of the time "
        "between its replies — the next batch should already be staged when "
        "it answers, and its reply should not wake the loop onto its own CPU"
    )


@pytest.mark.timeout(300)
def test_process_flood_is_correct_under_load():
    """Runs on any host: a process-worker flood must answer every request.

    The functional half of the benchmark (the timing gate above needs
    cores; correctness must hold even when processes just time-slice).
    """
    model = _model()
    x = np.random.default_rng(5).normal(size=(32, 1, 12, 12))

    async def main():
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=4,
                workers=2,
                worker_backend="process",
                batcher=BatcherConfig(
                    max_batch_size=MAX_BATCH, max_batch_latency=0.002, max_queue_size=64
                ),
            ),
        ) as server:
            results = await server.submit_many(x)
            return results, server.stats()

    results, stats = asyncio.run(main())
    assert len(results) == x.shape[0]
    assert stats.requests_completed == x.shape[0]
    assert stats.worker_backend == "process"
    assert stats.worker_crashes == 0
    for res in results:
        assert res.probs.shape == (10,)
        assert res.probs.sum() == pytest.approx(1.0)
        assert res.mutual_information is not None
