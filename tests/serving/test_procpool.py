"""Process-pool serving: backend equivalence, staleness, crashes, teardown.

The process backend is only acceptable if it is *semantically invisible*:
``worker_backend="process"`` must produce bit-identical responses to the
thread backend (and to ``workers=1``) under identical batch formation,
propagate weight updates through the shared-memory arena via the
``weights_version`` token, absorb individual worker crashes by retrying on
live siblings, and shut down without leaking shared-memory segments or
leaving the model in a degraded state.  All tests run fine on one core —
process scheduling interleaves without parallel speedup; the throughput
gate lives in ``benchmarks/test_procpool_serving.py``.

Every test carries an explicit timeout: a deadlocked worker channel must
fail the test, not hang the runner.
"""

from __future__ import annotations

import asyncio
import logging
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import BatcherConfig, ServingConfig, ServingEngine, WorkerCrashed


NUM_SAMPLES = 6

X = np.random.default_rng(7).normal(size=(8, 1, 12, 12))


def _model(mcd=1, seed=0):
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=mcd, seed=seed),
    )


def _serve_sequentially(backend: str, workers: int, **kwargs) -> list:
    """Serve X one request at a time (deterministic batch formation)."""
    model = _model()

    async def main():
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=NUM_SAMPLES, workers=workers, worker_backend=backend
            ),
            **kwargs,
        ) as server:
            results = [await server.submit(x) for x in X]
            return results, server.stats()

    return asyncio.run(main())


def _next_victim(server: ServingEngine):
    """The worker handle that will serve the next batch (checkout order)."""
    return server._pool._checkout._queue[0][-1]  # (level, ticket, replica)


# --------------------------------------------------------------------------- #
# backend / worker-count bit-identity
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_process_backend_bit_identical_to_thread_backend():
    """Same request sequence ⇒ bit-identical responses across backends.

    Both backends run the same compute path under a per-batch context
    spawned from (layer seed, batch seq), so where a batch executes — a
    worker thread or a spawned process — cannot affect a single bit.
    """
    results_thread, stats_thread = _serve_sequentially("thread", 1)
    results_proc, stats_proc = _serve_sequentially("process", 2)
    for rt, rp in zip(results_thread, results_proc):
        np.testing.assert_array_equal(rt.probs, rp.probs)
        assert rt.label == rp.label
        assert rt.entropy == rp.entropy
        assert rt.mutual_information == rp.mutual_information
    assert stats_thread.worker_backend == "thread"
    assert stats_proc.worker_backend == "process"
    assert stats_proc.workers == 2
    assert stats_proc.worker_crashes == 0
    assert stats_proc.requests_completed == len(X)


@pytest.mark.timeout(120)
def test_process_backend_bit_identical_across_worker_counts():
    results_k1, _ = _serve_sequentially("process", 1)
    results_k2, _ = _serve_sequentially("process", 2)
    for r1, r2 in zip(results_k1, results_k2):
        np.testing.assert_array_equal(r1.probs, r2.probs)
        assert r1.entropy == r2.entropy


@pytest.mark.timeout(120)
def test_early_exit_mode_matches_thread_backend():
    def serve(backend):
        model = _model()

        async def main():
            async with ServingEngine(
                model,
                ServingConfig(
                    early_exit_threshold=0.5, workers=2, worker_backend=backend
                ),
            ) as server:
                return [await server.submit(x) for x in X]

        return asyncio.run(main())

    for rt, rp in zip(serve("thread"), serve("process")):
        np.testing.assert_array_equal(rt.probs, rp.probs)
        assert rt.exit_index == rp.exit_index


@pytest.mark.timeout(120)
def test_one_exit_model_bit_identical_across_backends():
    """A one-exit model (the SE/MCD variants) crosses the process boundary too."""

    def serve(backend):
        model = MultiExitBayesNet(
            lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5),
            MultiExitConfig(num_exits=1, mcd_layers_per_exit=1, seed=0),
        )

        async def main():
            async with ServingEngine(
                model, ServingConfig(num_samples=4, workers=2, worker_backend=backend)
            ) as server:
                return [await server.submit(x) for x in X[:4]]

        return asyncio.run(main())

    for rt, rp in zip(serve("thread"), serve("process"), strict=True):
        np.testing.assert_array_equal(rt.probs, rp.probs)
        assert rt.mutual_information == rp.mutual_information


# --------------------------------------------------------------------------- #
# weight-update propagation (weights_version staleness rule)
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_weight_updates_propagate_and_match_thread_backend():
    """Mutating parameters mid-serve reaches workers, bit-for-bit.

    The parent's ``assign`` writes land directly in the shared segment;
    the bumped ``weights_version`` token riding the next batch makes the
    worker resync counters and drop stale activation caches.  The served
    response after the update must equal the thread backend's response
    after the identical update (same batch formation ⇒ same spawn keys).
    """

    def serve_with_update(backend):
        model = _model()

        async def main():
            async with ServingEngine(
                model,
                ServingConfig(
                    num_samples=NUM_SAMPLES, workers=2, worker_backend=backend
                ),
            ) as server:
                before = await server.submit(X[0])
                for p in model.parameters():
                    p.assign(p.value * 1.25)
                after = await server.submit(X[1])
                return before, after

        return asyncio.run(main())

    before_t, after_t = serve_with_update("thread")
    before_p, after_p = serve_with_update("process")
    np.testing.assert_array_equal(before_t.probs, before_p.probs)
    np.testing.assert_array_equal(after_t.probs, after_p.probs)


@pytest.mark.timeout(120)
def test_same_input_changes_after_weight_update():
    model = _model()

    async def main():
        async with ServingEngine(
            model,
            ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="process"),
        ) as server:
            before = await server.submit(X[0])
            for p in model.parameters():
                p.assign(p.value * 1.5)
            after = await server.submit(X[0])
            return before, after

    before, after = asyncio.run(main())
    assert not np.array_equal(before.probs, after.probs)


# --------------------------------------------------------------------------- #
# crash handling
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_dead_workers_batch_retried_on_live_sibling():
    model = _model()

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, workers=2, worker_backend="process")
        ) as server:
            await server.submit(X[0])  # warm both ends of the channel
            victim = _next_victim(server)
            victim.process.kill()
            victim.process.join(10.0)
            results = await server.submit_many(X)
            return results, server.stats()

    results, stats = asyncio.run(main())
    assert len(results) == len(X)
    assert stats.worker_crashes >= 1
    for res in results:
        assert res.probs.shape == (5,)


@pytest.mark.timeout(120)
def test_all_workers_dead_raises_worker_crashed():
    """Total pool death fails fast — on every submit, and stop() still drains.

    Regression shape: the first submit after the death detects it via the
    broken channel, but *subsequent* submits never touch a channel — they
    must fail fast from the checkout path instead of parking forever on an
    empty queue (which would also wedge ``stop(drain=True)``, exercised
    here by the context-manager exit).
    """
    model = _model()

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, workers=1, worker_backend="process")
        ) as server:
            await server.submit(X[0])
            victim = _next_victim(server)
            victim.process.kill()
            victim.process.join(10.0)
            with pytest.raises(WorkerCrashed):
                await server.submit(X[0])
            with pytest.raises(WorkerCrashed):
                await server.submit(X[1])
            with pytest.raises(WorkerCrashed):
                await asyncio.wait_for(server.submit(X[2]), timeout=30.0)
            return server.stats()

    stats = asyncio.run(main())
    assert stats.worker_crashes == 1


# --------------------------------------------------------------------------- #
# teardown
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_stop_releases_segment_and_model_stays_usable():
    model = _model()

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, workers=2, worker_backend="process")
        ) as server:
            await server.submit(X[0])
            return server._pool._shared.manifest.segment_name

    segment_name = asyncio.run(main())
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment_name)
    assert all(p._shm_spec is None for p in model.parameters())
    # the model is untouched by a serve/stop cycle: private storage,
    # normal mutation, batch inference all work
    direct = model.engine.predict_mc(X, num_samples=2)
    assert direct.mean_probs.shape == (len(X), 5)
    for p in model.parameters():
        p.assign(p.value * 0.5)


@pytest.mark.timeout(120)
def test_worker_backend_validated():
    with pytest.raises(ValueError, match="worker_backend"):
        ServingEngine(_model(), ServingConfig(worker_backend="fiber"))


# --------------------------------------------------------------------------- #
# crash-retry unhappy edges (deterministic via FaultPlan)
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_crash_holding_ring_slot_retried_then_crashed_again_on_sibling():
    """A batch whose first AND second workers die still completes on a third.

    Both kills fire ``pre_doorbell`` — the victim dies *after* the batch
    was staged into its ring slot — so the retry path must release the
    dead worker's slot, re-stage the same payloads into the sibling's
    ring, and (when that sibling is killed too) do it all again.  The
    survivor's response must be bit-identical to an undisturbed run: the
    batch seq, not the worker, seeds the RNG context.
    """
    from repro.serving import FaultPlan

    plan = FaultPlan([(1, "pre_doorbell"), (1, "pre_doorbell")])

    async def main():
        async with ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=3,
                worker_backend="process",
                fault_plan=plan,
            ),
        ) as server:
            first = await server.submit(X[0])  # seq 0: undisturbed
            second = await server.submit(X[1])  # seq 1: killed twice
            return first, second, server.stats()

    first, second, stats = asyncio.run(main())
    oracle, _ = _serve_sequentially("thread", 1)
    np.testing.assert_array_equal(first.probs, oracle[0].probs)
    np.testing.assert_array_equal(second.probs, oracle[1].probs)
    assert stats.worker_crashes == 2
    assert len(plan) == 0


@pytest.mark.timeout(120)
def test_double_crash_with_two_workers_exhausts_pool():
    """Two scheduled kills against K=2 leave no sibling: WorkerCrashed."""
    from repro.serving import FaultPlan

    plan = FaultPlan([(0, "mid_compute"), (0, "mid_compute")])

    async def main():
        async with ServingEngine(
            _model(),
            ServingConfig(
                num_samples=4, workers=2, worker_backend="process", fault_plan=plan
            ),
        ) as server:
            with pytest.raises(WorkerCrashed):
                await server.submit(X[0])
            return server.stats()

    stats = asyncio.run(main())
    assert stats.worker_crashes == 2


@pytest.mark.timeout(120)
def test_worker_crash_during_stop_drain_still_answers_queued_requests():
    """A kill landing on a batch served during ``stop(drain=True)`` is retried.

    The queued requests behind the crashed batch must all be answered by
    the drain — a crash mid-shutdown must not strand the queue or wedge
    ``stop``.
    """
    from repro.serving import FaultPlan

    plan = FaultPlan([(2, "mid_compute")])

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=4,
                workers=2,
                worker_backend="process",
                fault_plan=plan,
                batcher=BatcherConfig(max_batch_size=1),
            ),
        )
        await server.start()
        pending = [asyncio.ensure_future(server.submit(X[i])) for i in range(6)]
        await asyncio.sleep(0)  # let the submissions enqueue
        await server.stop(drain=True)
        results = await asyncio.gather(*pending)
        return results, server.stats()

    results, stats = asyncio.run(main())
    assert len(results) == 6
    assert stats.requests_completed == 6
    assert stats.worker_crashes == 1
    for res in results:
        assert res.probs.shape == (5,)


@pytest.mark.timeout(120)
def test_fleet_events_leave_one_log_record_each(caplog):
    """Crash, respawn, generation swap — and no batch.

    ``repro.serving.workers`` logs what the fleet *did*; serving a batch on
    the happy path is not an event and must not produce a record.
    """
    caplog.set_level(logging.INFO, logger="repro.serving.workers")

    def records() -> list[str]:
        return [
            f"{r.levelname} {r.getMessage()}"
            for r in caplog.records
            if r.name.startswith("repro.serving.workers.")
        ]

    async def main():
        async with ServingEngine(
            _model(), ServingConfig(num_samples=4, workers=1, worker_backend="process")
        ) as server:
            pool = server._pool
            # what start() had to say — the placement, where the host has a
            # CPU to spare — is the last word until the fleet does something
            started = records()
            assert len(started) <= 1
            await server.submit_many(X)
            assert records() == started

            (victim,) = pool._replicas
            victim.process.kill()
            victim.process.join(10.0)
            assert await pool.ensure_healthy() == 1
            await server.swap_model(_model(seed=1))
            events = records()
            await server.submit_many(X)
            assert records() == events, "a batch on the happy path was logged"
            return events[len(started) :]

    crash, respawn, swap = asyncio.run(main())
    assert crash.startswith("WARNING worker 0 (pid ") and "exit code -9" in crash
    assert respawn == "INFO respawned 1 replica(s); fleet back at 1"
    assert swap.startswith("INFO generation 0 drained and closed; 1 replica(s)")


@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_stop_is_idempotent_across_backends(backend):
    """Double stop, stop-after-drain and serve-after-restart all behave."""
    model = _model()

    async def main():
        server = ServingEngine(
            model, ServingConfig(num_samples=4, workers=2, worker_backend=backend)
        )
        await server.start()
        first = await server.submit(X[0])
        await server.stop(drain=True)
        await server.stop(drain=True)  # second stop: clean no-op
        await server.stop(drain=False)  # and with the other drain mode
        # a stopped engine restarts cleanly and serves again
        await server.start()
        second = await server.submit(X[1])
        await server.stop()
        await server.stop()
        return first, second

    first, second = asyncio.run(main())
    assert first.probs.shape == (5,)
    assert second.probs.shape == (5,)
    # the model came back to private storage exactly once
    assert all(p._shm_spec is None for p in model.parameters())
