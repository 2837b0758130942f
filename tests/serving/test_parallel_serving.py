"""Reentrancy and multi-worker serving: determinism, isolation, scheduling.

The reentrancy refactor is only worth anything if it is *observationally
invisible*: a ``workers=K`` server must produce bit-identical responses to
the ``workers=1`` server for the same request sequence, and concurrent
engine replicas must never leak state into each other.  These tests pin
both properties (they run fine on a single core — threads interleave even
without parallel speedup), plus the new batcher scheduling features:
earliest-deadline-first assembly and pipelined dispatch.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn import ForwardContext
from repro.nn.architectures import lenet5_spec
from repro.serving import BatcherConfig, DynamicBatcher, ServingConfig, ServingEngine


NUM_SAMPLES = 6


def _model(mcd=1, seed=0):
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=mcd, seed=seed),
    )


X = np.random.default_rng(7).normal(size=(16, 1, 12, 12))


# --------------------------------------------------------------------------- #
# 1-worker vs K-worker bit-identity
# --------------------------------------------------------------------------- #
def _serve_sequentially(workers: int) -> list:
    """Serve X one request at a time (deterministic batch formation)."""
    model = _model(mcd=1)

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=NUM_SAMPLES, workers=workers)
        ) as server:
            return [await server.submit(x) for x in X]

    return asyncio.run(main())


def test_one_vs_four_workers_bit_identical_responses():
    """Same request sequence ⇒ bit-identical probs/uncertainty at any K.

    Per-batch RNG contexts spawn from (layer seed, batch sequence number),
    so a response depends only on the request's position — never on which
    worker thread computed it or what that worker served before.
    """
    results_1 = _serve_sequentially(workers=1)
    results_4 = _serve_sequentially(workers=4)
    for r1, r4 in zip(results_1, results_4):
        np.testing.assert_array_equal(r1.probs, r4.probs)
        assert r1.label == r4.label
        assert r1.entropy == r4.entropy
        assert r1.mutual_information == r4.mutual_information


def test_replicas_and_spawned_contexts_pin_sample_probs():
    """predict_mc under a spawned context is replica-independent, bit for bit."""
    model = _model(mcd=1)
    engine = model.engine
    replica = engine.replicate()
    for k in (0, 3):
        a = engine.predict_mc(X, NUM_SAMPLES, ctx=ForwardContext(spawn_key=k))
        b = replica.predict_mc(X, NUM_SAMPLES, ctx=ForwardContext(spawn_key=k))
        np.testing.assert_array_equal(a.sample_probs, b.sample_probs)
    # distinct spawn keys give distinct (deterministic) sample sets
    a0 = engine.predict_mc(X, NUM_SAMPLES, ctx=ForwardContext(spawn_key=0))
    a1 = engine.predict_mc(X, NUM_SAMPLES, ctx=ForwardContext(spawn_key=1))
    assert not np.array_equal(a0.sample_probs, a1.sample_probs)


def test_multiworker_serving_matches_direct_engine_for_deterministic_model():
    """K workers under concurrent load: responses must match batch inference."""
    model = _model(mcd=0)
    direct = model.engine.predict_mc(X, num_samples=2)

    async def main():
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=2,
                workers=4,
                batcher=BatcherConfig(max_batch_size=4, max_batch_latency=0.005),
            ),
        ) as server:
            return await server.submit_many(X)

    results = asyncio.run(main())
    for i, res in enumerate(results):
        np.testing.assert_allclose(res.probs, direct.mean_probs[i], atol=1e-9)


# --------------------------------------------------------------------------- #
# hammer test: no cross-request state leakage between concurrent replicas
# --------------------------------------------------------------------------- #
def test_hammer_concurrent_replicas_no_state_leakage():
    """Two replicas hammered in lockstep threads reproduce serial results.

    Every iteration both threads run folded MC prediction *and* the
    active-set early-exit path on different inputs through a barrier, so
    their layer forwards interleave heavily.  Any shared per-call state —
    a mask on the layer, a cache entry, a shared stream — would corrupt at
    least one of the 2x20x2 comparisons against the serially-computed
    ground truth.
    """
    model = _model(mcd=1)
    engines = [model.engine, model.engine.replicate()]
    inputs = [X[:8], X[8:] * 2.0]
    rounds = 20

    def run_round(engine, x, key):
        mc = engine.predict_mc(x, NUM_SAMPLES, ctx=ForwardContext(spawn_key=key))
        ee = engine.early_exit_predict(x, 0.5, ctx=ForwardContext(spawn_key=key + 1))
        return mc.sample_probs, ee.probs, ee.exit_indices

    # serial ground truth on fresh replicas (same spawn keys ⇒ same draws)
    expected = [
        [
            run_round(model.engine.replicate(), inputs[t], 10_000 * t + 2 * r)
            for r in range(rounds)
        ]
        for t in range(2)
    ]

    barrier = threading.Barrier(2)
    observed: list[list] = [[], []]
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        try:
            for r in range(rounds):
                barrier.wait(timeout=30)
                observed[t].append(
                    run_round(engines[t], inputs[t], 10_000 * t + 2 * r)
                )
        except BaseException as exc:  # surface failures in the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not errors, f"worker thread failed: {errors[0]!r}"

    for t in range(2):
        assert len(observed[t]) == rounds
        for r in range(rounds):
            exp_mc, exp_probs, exp_idx = expected[t][r]
            got_mc, got_probs, got_idx = observed[t][r]
            np.testing.assert_array_equal(got_mc, exp_mc)
            np.testing.assert_array_equal(got_idx, exp_idx)
            np.testing.assert_allclose(got_probs, exp_probs, atol=1e-12)


# --------------------------------------------------------------------------- #
# earliest-deadline-first scheduling
# --------------------------------------------------------------------------- #
def test_edf_orders_backlog_by_deadline():
    release = None
    dispatched: list[list[str]] = []

    async def blocked_dispatch(payloads):
        dispatched.append(list(payloads))
        await release.wait()
        return payloads

    async def main():
        nonlocal release
        release = asyncio.Event()
        async with DynamicBatcher(
            blocked_dispatch,
            max_batch_size=1,
            max_batch_latency=0.005,
            max_queue_size=8,
        ) as batcher:
            first = asyncio.ensure_future(batcher.submit("first"))
            await asyncio.sleep(0.02)  # "first" is in flight (blocked)
            # backlog arrives in *non*-deadline order while blocked
            loose = asyncio.ensure_future(batcher.submit("loose", deadline=10.0))
            fifo = asyncio.ensure_future(batcher.submit("fifo"))  # no deadline
            tight = asyncio.ensure_future(batcher.submit("tight", deadline=0.01))
            await asyncio.sleep(0.02)
            release.set()
            await asyncio.gather(first, loose, fifo, tight)

    asyncio.run(main())
    # EDF: tight before loose; deadline-less FIFO request drains last
    assert dispatched == [["first"], ["tight"], ["loose"], ["fifo"]]


def test_no_deadlines_means_pure_fifo():
    order: list[str] = []

    async def recording_dispatch(payloads):
        order.extend(payloads)
        return payloads

    async def main():
        async with DynamicBatcher(
            recording_dispatch, max_batch_size=1, max_batch_latency=0.005
        ) as batcher:
            await asyncio.gather(*(batcher.submit(f"r{i}") for i in range(6)))

    asyncio.run(main())
    assert order == [f"r{i}" for i in range(6)]


def test_negative_deadline_rejected():
    async def main():
        async with DynamicBatcher(lambda p: p) as batcher:
            with pytest.raises(ValueError, match="deadline"):
                await batcher.submit("x", deadline=-1.0)

    asyncio.run(main())


def test_serving_engine_accepts_deadlines():
    model = _model(mcd=0)

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=1, workers=2)
        ) as server:
            results = await asyncio.gather(
                *(server.submit(x, deadline=0.5) for x in X[:4])
            )
            return results

    results = asyncio.run(main())
    assert len(results) == 4
    assert all(r.probs.shape == (5,) for r in results)


# --------------------------------------------------------------------------- #
# pipelined dispatch
# --------------------------------------------------------------------------- #
def test_pipelining_overlaps_batches_up_to_limit():
    """With max_concurrent_batches=2, two batches must be in flight at once."""
    release = None
    in_flight = 0
    peak = 0

    async def slow_dispatch(payloads):
        nonlocal in_flight, peak
        in_flight += 1
        peak = max(peak, in_flight)
        await release.wait()
        in_flight -= 1
        return payloads

    async def main():
        nonlocal release
        release = asyncio.Event()
        async with DynamicBatcher(
            slow_dispatch,
            max_batch_size=2,
            max_batch_latency=0.002,
            max_concurrent_batches=2,
            max_queue_size=32,
        ) as batcher:
            pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(8)]
            await asyncio.sleep(0.05)  # let the collector assemble + dispatch
            release.set()
            results = await asyncio.gather(*pending)
        assert sorted(results) == list(range(8))

    asyncio.run(main())
    assert peak == 2, f"expected 2 concurrent batches in flight, saw {peak}"


def test_serial_batcher_never_overlaps_batches():
    """Default max_concurrent_batches=1 keeps the historical serial dispatch."""
    in_flight = 0
    peak = 0

    async def tracking_dispatch(payloads):
        nonlocal in_flight, peak
        in_flight += 1
        peak = max(peak, in_flight)
        await asyncio.sleep(0.002)
        in_flight -= 1
        return payloads

    async def main():
        async with DynamicBatcher(
            tracking_dispatch,
            max_batch_size=2,
            max_batch_latency=0.001,
            max_queue_size=32,
        ) as batcher:
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))

    asyncio.run(main())
    assert peak == 1


def test_pipelined_drain_answers_everything():
    """stop(drain=True) must flush queued work through concurrent batches."""

    async def dispatch(payloads):
        await asyncio.sleep(0.001)
        return [p * 10 for p in payloads]

    async def main():
        batcher = DynamicBatcher(
            dispatch,
            max_batch_size=2,
            max_batch_latency=0.002,
            max_concurrent_batches=3,
            max_queue_size=64,
        )
        await batcher.start()
        pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(12)]
        await asyncio.sleep(0)  # submissions reach the queue
        await batcher.stop(drain=True)
        assert await asyncio.gather(*pending) == [i * 10 for i in range(12)]
        assert batcher.stats.completed == 12

    asyncio.run(main())


def test_pipelined_stop_without_drain_cancels_in_flight():
    release = None

    async def blocked_dispatch(payloads):
        await release.wait()
        return payloads

    async def main():
        nonlocal release
        release = asyncio.Event()
        batcher = DynamicBatcher(
            blocked_dispatch,
            max_batch_size=1,
            max_batch_latency=0.002,
            max_concurrent_batches=2,
            max_queue_size=8,
        )
        await batcher.start()
        pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(4)]
        await asyncio.sleep(0.02)  # two in flight, two queued/heaped
        await batcher.stop(drain=False)
        outcomes = await asyncio.gather(*pending, return_exceptions=True)
        assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))


def test_workers_validated():
    model = _model(mcd=0)
    with pytest.raises(ValueError, match="workers"):
        ServingEngine(model, ServingConfig(workers=0))
    with pytest.raises(ValueError, match="max_concurrent_batches"):
        DynamicBatcher(lambda p: p, max_concurrent_batches=0)


def test_start_is_idempotent_while_serving():
    """A second start() must not re-enqueue replicas already checked out.

    Rebuilding the worker checkout queue on a redundant start() would let
    two batches run concurrently on one non-reentrant replica; instead the
    pool keeps its state and the server serves exactly as before.
    """
    model = _model(mcd=1)

    async def main():
        server = ServingEngine(model, ServingConfig(num_samples=NUM_SAMPLES, workers=2))
        await server.start()
        first = asyncio.ensure_future(server.submit(X[0]))
        await asyncio.sleep(0)  # the first batch is in flight
        await server.start()  # documented idempotent: must be a no-op
        await first
        results = await server.submit_many(X)
        stats = server.stats()
        # the invariant the no-op protects: with every batch done, the
        # checkout queue holds each replica exactly once — a rebuilt queue
        # would have re-enqueued the replica that was checked out above
        queue = server._pool._checkout
        assert queue.qsize() == 2
        places = [queue.get_nowait() for _ in range(queue.qsize())]
        assert len({id(replica) for _, _, replica in places}) == 2
        for place in places:
            queue.put_nowait(place)
        await server.stop()
        return results, stats

    results, stats = asyncio.run(main())
    assert len(results) == len(X)
    assert stats.requests_completed == len(X) + 1
