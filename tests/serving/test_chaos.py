"""Chaos suite: deterministic kill schedules under sustained live traffic.

These tests are the acceptance gate for the self-healing fleet: a
supervised process server is flooded with singleton batches while a
:class:`~repro.serving.fleet.FaultPlan` kills workers at scheduled batch
sequence numbers — before the doorbell, mid-compute, and silently after
responding — and the run must be *indistinguishable from an undisturbed
one*:

* every response is bit-identical to a thread-backend ``workers=1``
  oracle (``max_batch_size=1`` + ordered submission makes batch seq ==
  request index on both sides, and the spawn-key rule does the rest);
* the supervisor restores the fleet to its target size;
* no shared-memory segment or worker process outlives the server (the
  suite-wide leak fixture in ``conftest.py`` scans ``/dev/shm`` and
  ``multiprocessing.active_children()`` around every test — crashed
  workers' rings and retired arena generations included);
* a generation swap in the middle of the flood never surfaces a torn
  read: each response matches the old-model oracle or the new-model
  oracle exactly, never a mixture.

Everything here is deterministic — kills are keyed on batch seq, not
wall-clock — but the runs are heavier than the unit suites, so they are
tagged ``chaos`` and wired into `make chaos` / the CI `parallel` job.
The headline runs work on any core count (one core time-slices the
workers); only the K=4 stress variant requires real parallelism.
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


pytestmark = pytest.mark.chaos

NUM_SAMPLES = 6

X = np.random.default_rng(7).normal(size=(8, 1, 12, 12))

needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="parallel stress variant needs >= 4 cores"
)


def _model(seed=0, width=0.5):
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=width),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=seed),
    )


def _thread_oracle(model_factory, n: int) -> list:
    """Serve n ordered singleton batches on an undisturbed thread server."""

    async def main():
        async with ServingEngine(
            model_factory(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=1,
                batcher=BatcherConfig(max_batch_size=1),
            ),
        ) as server:
            return [await server.submit(X[i % len(X)]) for i in range(n)]

    return asyncio.run(main())


async def _wait_until(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


def _run_chaos_flood(n: int, kills, workers: int) -> tuple[list, object, int]:
    """Flood a supervised process server while the plan kills workers.

    Returns (ordered results, final stats, unfired injections): the
    per-request results in submission order, the server's final
    stats, and the number of injections left unfired (must be 0).
    """
    plan = FaultPlan(kills)

    async def main():
        async with ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=workers,
                worker_backend="process",
                fleet=FleetConfig(health_interval=0.02),
                fault_plan=plan,
                batcher=BatcherConfig(max_batch_size=1, max_queue_size=max(2 * n, 128)),
            ),
        ) as server:
            results = await asyncio.gather(
                *(server.submit(X[i % len(X)]) for i in range(n))
            )
            # the supervisor must heal the fleet back to full strength
            await _wait_until(lambda: server.stats().current_workers == workers)
            return results, server.stats()

    results, stats = asyncio.run(main())
    return results, stats, len(plan)


# --------------------------------------------------------------------------- #
# headline: kill a worker every ~50 batches, demand a perfect run
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_chaos_kill_schedule_is_invisible_to_callers():
    n = 200
    kills = [
        (40, "pre_doorbell"),
        (90, "mid_compute"),
        (140, "post_response"),
        (190, "pre_doorbell"),
    ]
    results, stats, unfired = _run_chaos_flood(n, kills, workers=2)

    assert unfired == 0, "every scheduled kill must actually fire"
    assert len(results) == n
    assert stats.requests_completed == n
    assert stats.requests_rejected == 0
    assert stats.worker_crashes == len(kills)
    assert stats.workers_respawned >= 1  # the silent post_response death
    assert stats.current_workers == 2

    oracle = _thread_oracle(_model, n)
    for i, (got, want) in enumerate(zip(results, oracle)):
        np.testing.assert_array_equal(got.probs, want.probs, err_msg=f"seq {i}")
        assert got.entropy == want.entropy, f"seq {i}"
        assert got.mutual_information == want.mutual_information, f"seq {i}"


# --------------------------------------------------------------------------- #
# one worker, two batches in flight: every kill takes a neighbour with it
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_chaos_kills_with_two_batches_in_flight_on_one_worker():
    """Every fault point, hitting the batch *behind* the one computing.

    With a single worker the flood keeps both of its ring slots taken, so
    each scheduled batch is staged behind the one the worker is computing:
    a ``pre_doorbell`` kill takes that one down too, ``mid_compute`` dies
    right after it was answered, ``post_response`` answers both and then
    dies under whatever was staged next.  No sibling exists — every lost
    batch waits for the supervisor's respawn — and still each response
    must carry the bits of its own seq and each death count once.
    """
    n = 120
    kills = [
        (15, "pre_doorbell"),
        (40, "mid_compute"),
        (65, "post_response"),
        (90, "pre_doorbell"),
        (110, "mid_compute"),
    ]
    results, stats, unfired = _run_chaos_flood(n, kills, workers=1)

    assert unfired == 0, "every scheduled kill must actually fire"
    assert stats.requests_completed == n
    assert stats.requests_rejected == 0
    assert stats.worker_crashes == len(kills)
    assert stats.workers_respawned == len(kills)
    assert stats.current_workers == 1

    oracle = _thread_oracle(_model, n)
    for i, (got, want) in enumerate(zip(results, oracle)):
        np.testing.assert_array_equal(got.probs, want.probs, err_msg=f"seq {i}")
        assert got.entropy == want.entropy, f"seq {i}"
        assert got.mutual_information == want.mutual_information, f"seq {i}"


# --------------------------------------------------------------------------- #
# generation swap mid-traffic: zero failures, no torn reads
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_chaos_generation_swap_mid_traffic_never_tears():
    """Swap weights *and shapes* under live load; every bit stays honest.

    While 120 singleton batches flow, the server rolls from the original
    model onto a different-seed, different-width replacement.  Each
    response must be bitwise equal to the old-model oracle or the
    new-model oracle at its seq — a response matching neither would be a
    torn read (a worker computing over a half-updated arena), which the
    generation protocol exists to make impossible.  The four requests
    submitted after the swap returns must all carry new-model bits.
    """
    n = 120

    async def main():
        async with ServingEngine(
            _model(seed=0, width=0.5),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=2,
                worker_backend="process",
                fleet=FleetConfig(health_interval=0.02),
                batcher=BatcherConfig(max_batch_size=1, max_queue_size=2 * n),
            ),
        ) as server:
            flood = [
                asyncio.ensure_future(server.submit(X[i % len(X)]))
                for i in range(n)
            ]
            await _wait_until(lambda: server.stats().requests_completed >= 10)
            generation = await server.swap_model(_model(seed=3, width=0.75))
            results = await asyncio.gather(*flood)
            # submissions after the swap must be served by the new model
            tail = [await server.submit(X[i % len(X)]) for i in range(n, n + 4)]
            return results, tail, generation, server.stats()

    results, tail, generation, stats = asyncio.run(main())

    assert generation == 1
    assert stats.arena_generation == 1
    assert stats.requests_completed == n + 4
    assert stats.requests_rejected == 0
    assert stats.current_workers == 2

    oracle_old = _thread_oracle(lambda: _model(seed=0, width=0.5), n + 4)
    oracle_new = _thread_oracle(lambda: _model(seed=3, width=0.75), n + 4)
    from_old = from_new = 0
    for i, got in enumerate(results):
        if np.array_equal(got.probs, oracle_old[i].probs):
            from_old += 1
        elif np.array_equal(got.probs, oracle_new[i].probs):
            from_new += 1
        else:
            raise AssertionError(
                f"seq {i}: torn read — matches neither the old-model nor "
                f"the new-model oracle"
            )
    # the flood started on the old model, so its early responses are old
    assert from_old >= 10
    assert from_old + from_new == n
    for i, got in enumerate(tail):
        np.testing.assert_array_equal(
            got.probs, oracle_new[n + i].probs, err_msg=f"tail seq {n + i}"
        )


# --------------------------------------------------------------------------- #
# K=4 stress variant: genuinely parallel batches + the same guarantees
# --------------------------------------------------------------------------- #
@needs_cores
@pytest.mark.timeout(300)
def test_chaos_parallel_k4_kill_schedule():
    n = 160
    kills = [
        (30, "pre_doorbell"),
        (60, "mid_compute"),
        (90, "post_response"),
        (120, "mid_compute"),
        (150, "pre_doorbell"),
    ]
    results, stats, unfired = _run_chaos_flood(n, kills, workers=4)

    assert unfired == 0
    assert stats.requests_completed == n
    assert stats.worker_crashes == len(kills)
    assert stats.current_workers == 4

    # singleton batches keep seq == submission index even with four
    # batches genuinely in flight, so bit-identity must still hold
    oracle = _thread_oracle(_model, n)
    for i, (got, want) in enumerate(zip(results, oracle)):
        np.testing.assert_array_equal(got.probs, want.probs, err_msg=f"seq {i}")
