"""Fleet benchmark: what a worker death costs the tail latency.

The supervisor makes crashes *correct* (no failed requests, fleet healed
to target size); this benchmark documents what they *cost*.  A supervised
K=2 process server serves a sequential singleton-batch flood while a
:class:`~repro.serving.fleet.FaultPlan` kills one worker mid-compute at a
known batch seq.  Requests inside the kill-respawn window pay for death
detection plus the retry on the sibling; everything outside it serves at
steady state.  Both p99s land in ``BENCH_serving.json`` so regressions in
crash detection (e.g. a sloppier poll interval) show up as a growing gap.

Functional gates hold on any host: every request answered, exactly one
crash counted, the fleet healed back to K.  The latency numbers are
recorded, with only a very generous sanity bound asserted — absolute
timings on shared CI runners are weather, not signal.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import (
    BatcherConfig,
    FaultPlan,
    FleetConfig,
    ServingConfig,
    ServingEngine,
)

from . import reporting


NUM_SAMPLES = 6
NUM_REQUESTS = 150
KILL_SEQ = 60
#: requests whose latency may legitimately include crash fallout
WINDOW = range(KILL_SEQ - 2, KILL_SEQ + 20)
WORKERS = 2


def _model() -> MultiExitBayesNet:
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=10, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0),
    )


@pytest.mark.timeout(300)
def test_respawn_gap_latency_is_recorded_and_bounded():
    x = np.random.default_rng(11).normal(size=(8, 1, 12, 12))
    plan = FaultPlan([(KILL_SEQ, "mid_compute")])
    model = _model()

    async def main():
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=WORKERS,
                worker_backend="process",
                fleet=FleetConfig(health_interval=0.02),
                fault_plan=plan,
                batcher=BatcherConfig(
                    max_batch_size=1, max_queue_size=2 * NUM_REQUESTS
                ),
            ),
        ) as server:
            latencies = np.empty(NUM_REQUESTS)
            for i in range(NUM_REQUESTS):
                start = time.perf_counter()
                await server.submit(x[i % len(x)])
                latencies[i] = time.perf_counter() - start
            # let the supervisor finish healing before reading the stats
            deadline = time.monotonic() + 60.0
            while server.stats().current_workers < WORKERS:
                assert time.monotonic() < deadline, "fleet never healed"
                await asyncio.sleep(0.02)
            return latencies, server.stats()

    latencies, stats = asyncio.run(main())

    window = latencies[list(WINDOW)]
    steady = np.delete(latencies, list(WINDOW))
    steady_p99 = float(np.percentile(steady, 99))
    window_p99 = float(np.percentile(window, 99))
    gap_s = float(window.max())
    print(
        f"\nfleet respawn gap (K={WORKERS} processes, kill at seq {KILL_SEQ}): "
        f"steady p99 {steady_p99 * 1e3:.1f} ms, kill-window p99 "
        f"{window_p99 * 1e3:.1f} ms, worst hit {gap_s * 1e3:.1f} ms, "
        f"{stats.workers_respawned} respawn(s) on {os.cpu_count()} cores"
    )
    reporting.record(
        "fleet_respawn",
        workers=WORKERS,
        num_requests=NUM_REQUESTS,
        kill_seq=KILL_SEQ,
        steady_p99_s=steady_p99,
        respawn_window_p99_s=window_p99,
        respawn_gap_max_s=gap_s,
        worker_crashes=stats.worker_crashes,
        workers_respawned=stats.workers_respawned,
        cpu_count=os.cpu_count(),
    )

    assert stats.requests_completed == NUM_REQUESTS
    assert stats.requests_rejected == 0
    assert stats.worker_crashes == 1
    assert stats.workers_respawned >= 1
    assert stats.current_workers == WORKERS
    assert len(plan) == 0
    # the dead worker's batch retried within the detection budget: a poll
    # interval plus compute, nowhere near the respawn_wait ceiling
    assert gap_s < 30.0
