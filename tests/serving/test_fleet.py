"""Fleet layer: fault plans, supervision, swaps.

Unit tests drive the pure piece (:class:`FaultPlan` consume-once
semantics) without any processes; integration tests run real supervised
process fleets — kill workers and watch the supervisor restore K, and
roll a live server onto a new model generation (weights *and shapes*
changed) with zero failed requests.  All tests run on any core count: one
core merely time-slices the workers.

The adversarial kill-schedule runs (a worker dying every ~N batches under
sustained traffic, with bit-identity asserted against a thread oracle)
live in ``test_chaos.py`` behind the ``chaos`` marker.
"""

from __future__ import annotations

import asyncio
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec, resnet_spec
from repro.serving import (
    BatcherConfig,
    FaultInjection,
    FaultPlan,
    FleetConfig,
    ServingConfig,
    ServingEngine,
    WorkerSupervisor,
)


NUM_SAMPLES = 6

X = np.random.default_rng(7).normal(size=(8, 1, 12, 12))


def _model(mcd=1, seed=0, width=0.5):
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=width),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=mcd, seed=seed),
    )


def _next_victim(server: ServingEngine):
    """The worker handle that will serve the next batch (checkout order)."""
    return server._pool._checkout._queue[0][-1]  # (level, ticket, replica)


async def _wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


# --------------------------------------------------------------------------- #
# FaultPlan / FaultInjection (pure)
# --------------------------------------------------------------------------- #
def test_fault_injection_validates_point_and_seq():
    with pytest.raises(ValueError, match="fault point"):
        FaultInjection(0, "mid_gemm")
    with pytest.raises(ValueError, match="non-negative"):
        FaultInjection(-1, "pre_doorbell")


def test_fault_plan_consumes_each_injection_exactly_once():
    plan = FaultPlan([(3, "pre_doorbell"), (3, "mid_compute"), (7, "post_response")])
    assert len(plan) == 3
    assert plan.take(0) is None
    # two injections for seq 3 fire on consecutive attempts, in order —
    # this is how the retry-on-sibling double-kill edge is scheduled
    assert plan.take(3) == "pre_doorbell"
    assert plan.take(3) == "mid_compute"
    assert plan.take(3) is None
    assert plan.take(7) == "post_response"
    assert len(plan) == 0
    assert plan.pending == ()


def test_fault_plan_accepts_injection_objects():
    plan = FaultPlan([FaultInjection(1, "mid_compute")])
    assert plan.take(1) == "mid_compute"


def test_fault_plan_requires_process_backend():
    with pytest.raises(ValueError, match="process"):
        ServingEngine(
            _model(), ServingConfig(fault_plan=FaultPlan([(0, "pre_doorbell")]))
        )


# --------------------------------------------------------------------------- #
# supervisor: respawn restores K (process backend)
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_supervisor_respawns_killed_worker_and_restores_k():
    model = _model()

    async def main():
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=4,
                workers=2,
                worker_backend="process",
                fleet=FleetConfig(health_interval=0.02),
            ),
        ) as server:
            await server.submit(X[0])
            victim = _next_victim(server)
            victim.process.kill()
            victim.process.join(10.0)
            # the victim died *idle* — only the liveness scan can find it
            await _wait_until(lambda: server.stats().workers_respawned >= 1)
            await _wait_until(lambda: server.stats().current_workers == 2)
            results = await server.submit_many(X)
            return results, server.stats()

    results, stats = asyncio.run(main())
    assert len(results) == len(X)
    assert stats.workers_respawned >= 1
    assert stats.worker_crashes >= 1
    assert stats.current_workers == 2


@pytest.mark.timeout(120)
def test_supervised_total_death_recovers_instead_of_failing():
    """With K=1 supervised, killing the only worker must not fail submits.

    Unsupervised, this exact sequence raises ``WorkerCrashed`` (pinned by
    ``test_all_workers_dead_raises_worker_crashed``); under a supervisor
    the batch parks until the respawn lands and then completes — and the
    respawned worker's response is bit-identical to an uninterrupted run,
    because the batch seq (not the worker) seeds the RNG context.
    """

    async def serve(kill: bool):
        async with ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=1,
                worker_backend="process",
                fleet=FleetConfig(health_interval=0.02),
            ),
        ) as server:
            first = await server.submit(X[0])
            if kill:
                victim = _next_victim(server)
                victim.process.kill()
                victim.process.join(10.0)
            second = await server.submit(X[1])
            return first, second, server.stats()

    async def main():
        return await serve(kill=True), await serve(kill=False)

    (f_kill, s_kill, stats_kill), (f_ok, s_ok, _) = asyncio.run(main())
    np.testing.assert_array_equal(f_kill.probs, f_ok.probs)
    np.testing.assert_array_equal(s_kill.probs, s_ok.probs)
    assert stats_kill.worker_crashes >= 1
    assert stats_kill.workers_respawned >= 1


# --------------------------------------------------------------------------- #
# supervisor: the health loop alone (a stand-in pool, no workers)
# --------------------------------------------------------------------------- #
class _ScanLog:
    """The two pool members a supervisor touches; ``failures`` scans raise."""

    def __init__(self, failures=0):
        self.supervised = False
        self.scans = 0
        self.failures = failures

    async def ensure_healthy(self):
        self.scans += 1
        if self.scans <= self.failures:
            raise RuntimeError("spawn failed")
        return 0


def test_supervisor_start_and_stop_are_idempotent():
    async def main():
        pool = _ScanLog()
        supervisor = WorkerSupervisor(pool, FleetConfig(health_interval=0.01))
        await supervisor.start()
        task = supervisor._health_task
        await supervisor.start()
        assert supervisor._health_task is task  # one loop, not two
        assert pool.supervised
        await _wait_until(lambda: pool.scans >= 2)
        await supervisor.stop()
        await supervisor.stop()
        assert task.cancelled()
        assert not pool.supervised
        scans = pool.scans
        await asyncio.sleep(0.05)
        return scans, pool.scans

    stopped_at, later = asyncio.run(main())
    assert later == stopped_at  # no scan after stop


def test_an_unsupervised_fleet_config_starts_no_health_loop():
    async def main():
        pool = _ScanLog()
        supervisor = WorkerSupervisor(pool, FleetConfig(supervise=False))
        await supervisor.start()
        await asyncio.sleep(0.02)
        state = supervisor._health_task, pool.supervised, pool.scans
        await supervisor.stop()
        return state

    assert asyncio.run(main()) == (None, False, 0)


def test_the_health_loop_outlives_a_failing_scan():
    """A failed respawn is retried on the next tick, not fatal to the loop."""

    async def main():
        pool = _ScanLog(failures=2)
        supervisor = WorkerSupervisor(pool, FleetConfig(health_interval=0.01))
        await supervisor.start()
        await _wait_until(lambda: pool.scans >= 4)
        alive = not supervisor._health_task.done()
        await supervisor.stop()
        return alive

    assert asyncio.run(main())


@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_supervised_fleet_stays_at_workers_under_a_flood(backend):
    """Nothing grows or shrinks the fleet: backlog leaves it at ``workers``."""

    async def main():
        async with ServingEngine(
            _model(),
            ServingConfig(
                num_samples=4,
                workers=2,
                worker_backend=backend,
                fleet=FleetConfig(health_interval=0.01),
                batcher=BatcherConfig(max_batch_size=1, max_queue_size=256),
            ),
        ) as server:
            seen = set()
            flood = asyncio.gather(
                *(server.submit(X[i % len(X)]) for i in range(48))
            )
            while not flood.done():
                seen.add(server.stats().current_workers)
                await asyncio.sleep(0.005)
            return await flood, seen, server.stats()

    results, seen, stats = asyncio.run(main())
    assert len(results) == 48
    assert seen == {2}
    assert stats.current_workers == 2
    assert stats.workers_respawned == 0


# --------------------------------------------------------------------------- #
# generation swaps (weights and shapes)
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_swap_model_changes_weights_and_shapes_without_downtime(backend):
    """A quiesced swap onto a different-width model serves the new bits.

    The replacement model has a different seed *and* a different hidden
    width (``width_multiplier``), so parameter shapes change — the
    process backend must build a whole new arena generation, not mutate
    the old segment.  Responses after the swap must be bit-identical to a
    server that ran the new model from the start (same seqs ⇒ same spawn
    keys), which also proves no worker kept serving stale weights.
    """

    async def serve_plain(model_factory, seqs):
        async with ServingEngine(
            model_factory(), ServingConfig(num_samples=NUM_SAMPLES, workers=1)
        ) as server:
            return [await server.submit(X[i]) for i in range(seqs)]

    async def main():
        oracle_old = await serve_plain(lambda: _model(seed=0, width=0.5), 8)
        oracle_new = await serve_plain(lambda: _model(seed=3, width=0.75), 8)
        async with ServingEngine(
            _model(seed=0, width=0.5),
            ServingConfig(num_samples=NUM_SAMPLES, workers=2, worker_backend=backend),
        ) as server:
            before = [await server.submit(X[i]) for i in range(4)]
            generation = await server.swap_model(_model(seed=3, width=0.75))
            after = [await server.submit(X[i]) for i in range(4, 8)]
            return before, after, generation, server.stats(), oracle_old, oracle_new

    before, after, generation, stats, oracle_old, oracle_new = asyncio.run(main())
    assert generation == 1
    assert stats.arena_generation == 1
    assert stats.requests_completed == 8
    assert stats.current_workers == 2
    for got, want in zip(before, oracle_old[:4]):
        np.testing.assert_array_equal(got.probs, want.probs)
    for got, want in zip(after, oracle_new[4:]):
        np.testing.assert_array_equal(got.probs, want.probs)


@pytest.mark.timeout(120)
def test_swap_releases_old_arena_segment():
    model = _model()

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, workers=2, worker_backend="process")
        ) as server:
            await server.submit(X[0])
            old_segment = server._pool._shared.manifest.segment_name
            await server.swap_model(_model(seed=1))
            new_segment = server._pool._shared.manifest.segment_name
            await server.submit(X[1])
            return old_segment, new_segment

    old_segment, new_segment = asyncio.run(main())
    assert old_segment != new_segment
    for name in (old_segment, new_segment):
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@pytest.mark.timeout(120)
def test_swap_model_to_live_model_keeps_parameters_shared():
    """Rolling the currently-served model into a new generation is safe.

    ``swap_model(model)`` with the model already being served rebinds the
    same ``Parameter`` objects into the successor arena; releasing the old
    generation must not detach them (the owner would silently stop
    propagating weight updates to the workers).
    """
    model = _model()

    async def oracle_main():
        async with ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=1,
                batcher=BatcherConfig(max_batch_size=1),
            ),
        ) as server:
            return [await server.submit(X[0]) for _ in range(3)]

    oracle = asyncio.run(oracle_main())

    async def main():
        async with ServingEngine(
            model,
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=2,
                worker_backend="process",
                batcher=BatcherConfig(max_batch_size=1),
            ),
        ) as server:
            before = await server.submit(X[0])
            generation = await server.swap_model(model)
            still_shared = all(p._shm_spec for p in model.parameters())
            after = await server.submit(X[0])
            # owner-side mutations must still land in the live segment
            p0 = next(iter(model.parameters()))
            p0.assign(p0.value * 2.0)
            bumped = await server.submit(X[0])
            return before, after, bumped, generation, still_shared

    before, after, bumped, generation, still_shared = asyncio.run(main())
    assert generation == 1
    assert still_shared, "swap released the live generation's bindings"
    # same model, same batch formation ⇒ the swap itself is bit-invisible
    np.testing.assert_array_equal(before.probs, oracle[0].probs)
    np.testing.assert_array_equal(after.probs, oracle[1].probs)
    # ...and the post-bump response must NOT match the unbumped oracle
    assert not np.array_equal(bumped.probs, oracle[2].probs)
    # the model survives teardown with ordinary private storage
    assert all(p._shm_spec is None for p in model.parameters())


@pytest.mark.timeout(120)
def test_swap_model_rejects_input_shape_change():
    """Queued requests were validated against shape and classes: both stay."""
    model = _model()

    def other(input_shape=(1, 12, 12), num_classes=5):
        return MultiExitBayesNet(
            lenet5_spec(
                input_shape=input_shape, num_classes=num_classes, width_multiplier=0.5
            ),
            MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0),
        )

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, workers=1)
        ) as server:
            with pytest.raises(ValueError, match="input shape"):
                await server.swap_model(other(input_shape=(1, 16, 16)))
            with pytest.raises(ValueError, match="number of classes"):
                await server.swap_model(other(num_classes=7))
            # the server is untouched and keeps serving
            assert server.stats().arena_generation == 0
            return await server.submit(X[0])

    result = asyncio.run(main())
    assert result.probs.shape == (5,)


@pytest.mark.timeout(120)
def test_swap_model_to_more_exits_under_early_exit():
    """A deeper successor's rows count at exits the first model lacked.

    The exit counters were sized once, from the first model: after a swap
    from one exit to four, every row retired at exit 1 or later failed its
    request after the batch had computed fine.
    """

    def resnet(num_exits):
        return MultiExitBayesNet(
            resnet_spec(
                "resnet10", input_shape=(3, 16, 16), width_multiplier=0.125
            ),
            MultiExitConfig(num_exits=num_exits, mcd_layers_per_exit=1, seed=0),
        )

    xs = np.random.default_rng(3).normal(size=(16, 3, 16, 16))

    async def main():
        async with ServingEngine(
            resnet(1), ServingConfig(early_exit_threshold=0.2, workers=1)
        ) as server:
            await server.submit(xs[0])
            await server.swap_model(resnet(4))
            results = [await server.submit(x) for x in xs]
            return results, server.stats()

    results, stats = asyncio.run(main())
    exits = [r.exit_index for r in results]
    assert max(exits) >= 1, "no row left exit 0: the regression is not exercised"
    assert len(stats.exit_counts) == 4
    assert stats.exit_counts == [exits.count(i) + (i == 0) for i in range(4)]


# --------------------------------------------------------------------------- #
# pool counters survive replica turnover
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_pool_counters_are_monotonic_across_swap_and_scale(backend):
    """Retired replicas take no counts with them (``swap_model``, ``stop``).

    ``ServingStats`` promises totals over every replica the pool has ever
    owned; a swap retires the whole cohort, so a sum over the *current*
    roster would go backwards.  The same holds while the engine is
    stopped: ``swap_model`` then only records the model of the next start,
    and what the stopped replicas counted stays counted.
    """
    counters = ("transport_ring_batches", "cache_misses", "cache_hits")

    async def main():
        async with ServingEngine(
            _model(), ServingConfig(num_samples=4, workers=2, worker_backend=backend)
        ) as server:
            snapshots = []

            async def serve_and_snapshot():
                for x in X:
                    await server.submit(x)
                snapshots.append(server.stats())

            await serve_and_snapshot()
            await server.swap_model(_model(seed=1))
            snapshots.append(server.stats())  # right after the swap
            await serve_and_snapshot()
            await server.swap_model(_model(seed=2))
            snapshots.append(server.stats())  # right after the second drain
            await serve_and_snapshot()
            # the stopped-engine phase: a swap that finds nothing serving
            await server.stop()
            snapshots.append(server.stats())
            await server.swap_model(_model(seed=3))
            snapshots.append(server.stats())
            await server.start()
            await serve_and_snapshot()
            return snapshots

    snapshots = asyncio.run(main())
    for before, after in zip(snapshots, snapshots[1:]):
        for name in counters:
            assert getattr(after, name) >= getattr(before, name), name
    first, last = snapshots[0], snapshots[-1]
    # one request per batch, one cache lookup per batch — on whichever
    # replica (old cohort, new cohort, restarted) served it
    assert first.cache_hits + first.cache_misses == len(X)
    assert last.cache_hits + last.cache_misses == 4 * len(X)
    if backend == "process":
        assert first.transport_ring_batches == len(X)
        assert last.transport_ring_batches == 4 * len(X)
    # a stopped pool only records: the new model applies at start
    stopped, swapped = snapshots[-3:-1]
    assert stopped.current_workers == swapped.current_workers == 2
    assert swapped.arena_generation == stopped.arena_generation + 1 == 3
    assert last.current_workers == 2
