"""Placement: a CPU per process worker, the loop thread on the others.

A worker's reply wakes the loop thread, and the kernel likes to run a woken
thread on the waker's CPU — where it preempts the worker for as long as the
loop has work.  So, where the host leaves a CPU to spare (fewer workers
than allowed CPUs), each worker pins itself to one CPU and ``start()``
keeps the loop thread off those; ``stop()`` puts the loop thread's mask
back.  Everywhere else nothing is touched.  These tests pin who changes
which mask when; they skip where there is nothing to place.
"""

from __future__ import annotations

import asyncio
import logging
import os

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import ServingConfig, ServingEngine
from repro.serving.workers import roster
from repro.serving.workers.procpool import ProcessWorkerPool

ALLOWED = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

pytestmark = [
    pytest.mark.skipif(len(ALLOWED) < 2, reason="needs sched_setaffinity and 2 CPUs"),
    pytest.mark.timeout(120),
]

X = np.random.default_rng(11).normal(size=(4, 1, 12, 12))


def _server(workers: int = 1) -> ServingEngine:
    model = MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0),
    )
    return ServingEngine(
        model,
        ServingConfig(num_samples=4, workers=workers, worker_backend="process"),
    )


def _loop_mask() -> set[int]:
    return os.sched_getaffinity(0)  # of the calling thread: the loop's


def _placement_records(caplog) -> list[str]:
    return [
        f"{r.levelname} {r.getMessage()}"
        for r in caplog.records
        if r.name == "repro.serving.workers.procpool"
    ]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_each_worker_gets_a_cpu_and_the_loop_thread_the_rest(caplog, workers):
    if workers >= len(ALLOWED):
        pytest.skip(f"{workers} workers leave no CPU to spare of {len(ALLOWED)}")
    caplog.set_level(logging.INFO, logger="repro.serving.workers")

    async def main():
        before = _loop_mask()
        server = _server(workers)
        async with server:
            handles = list(server._pool._replicas)
            owned = [h.cpu for h in handles]
            # one each, lowest first, never the first: that is the loop's
            assert owned == ALLOWED[1 : 1 + workers]
            for handle in handles:
                assert os.sched_getaffinity(handle.process.pid) == {handle.cpu}
            assert _loop_mask() == before - set(owned)
            await server.submit_many(X)
            started = _placement_records(caplog)
        assert _loop_mask() == before
        # restored means restored: a second stop has nothing left to undo
        await server.stop()
        assert _loop_mask() == before
        return started, handles

    started, handles = asyncio.run(main())
    placed = ", ".join(f"worker {h.index} → cpu {h.cpu}" for h in handles)
    loop_cpus = set(ALLOWED) - {h.cpu for h in handles}
    assert started == [f"INFO placement: {placed}, loop → {loop_cpus}"]


def test_the_next_cpu_is_the_least_loaded_and_never_the_loops():
    """The choice itself, on a CPU set this host need not have (no spawn)."""
    from types import SimpleNamespace as Handle

    pool = _server(workers=2)._pool
    assert pool._pick_cpu([]) is None  # not started: nothing is placed
    pool._allowed = [2, 5, 7, 9]
    assert pool._pick_cpu([]) == 5
    spawning = [Handle(cpu=5, alive=True)]
    assert pool._pick_cpu(spawning) == 7
    # a dead worker's CPU is free again: its respawn lands where it was
    pool._replicas = [Handle(cpu=5, alive=False), Handle(cpu=7, alive=True)]
    assert pool._pick_cpu([]) == 5
    # a swap's cohort doubles the fleet for a while: fill up, then share
    pool._replicas = [Handle(cpu=5, alive=True), Handle(cpu=7, alive=True)]
    assert pool._pick_cpu([]) == 9
    assert pool._pick_cpu([Handle(cpu=9, alive=True)]) == 5
    # as many workers as CPUs: nobody is placed
    pool.workers = 4
    assert pool._pick_cpu([]) is None


def test_a_respawn_takes_the_dead_workers_cpu_and_stop_still_restores():
    async def main():
        before = _loop_mask()
        async with _server() as server:
            pool = server._pool
            (victim,) = pool._replicas
            victim.process.kill()
            victim.process.join(10.0)
            assert await pool.ensure_healthy() == 1
            (respawn,) = pool._replicas
            assert respawn is not victim and respawn.cpu == victim.cpu
            assert os.sched_getaffinity(respawn.process.pid) == {victim.cpu}
            assert _loop_mask() == before - {victim.cpu}
            await server.submit_many(X)
        assert _loop_mask() == before

    asyncio.run(main())


def test_a_start_that_fails_half_way_leaves_the_loop_mask_alone(monkeypatch):
    # the worker is spawned (and pins itself), but start gives up on it
    monkeypatch.setattr(roster, "_START_TIMEOUT_S", 0.0)

    async def main():
        before = _loop_mask()
        server = _server()
        with pytest.raises(RuntimeError, match="did not become ready"):
            await server.start()
        assert _loop_mask() == before
        assert server._pool._replicas == [] and server._pool._allowed is None
        await server.stop()
        assert _loop_mask() == before

    asyncio.run(main())


def test_as_many_workers_as_cpus_touches_no_mask(caplog):
    caplog.set_level(logging.INFO, logger="repro.serving.workers")

    async def main():
        before = _loop_mask()
        async with _server(workers=len(ALLOWED)) as server:
            for handle in server._pool._replicas:
                assert handle.cpu is None
                assert os.sched_getaffinity(handle.process.pid) == before
            assert _loop_mask() == before
            await server.submit_many(X)
        assert _loop_mask() == before

    asyncio.run(main())
    assert _placement_records(caplog) == []


def test_a_worker_that_cannot_pin_itself_serves_unpinned(caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="repro.serving.workers")
    nowhere = ALLOWED[-1] + 4096  # no such CPU: sched_setaffinity raises
    monkeypatch.setattr(ProcessWorkerPool, "_pick_cpu", lambda self, spawning: nowhere)

    async def main():
        before = _loop_mask()
        async with _server() as server:
            (handle,) = server._pool._replicas
            assert handle.cpu is None
            assert os.sched_getaffinity(handle.process.pid) == before
            assert _loop_mask() == before  # nobody to keep clear of
            results = await server.submit_many(X)
            assert len(results) == len(X)
        assert _loop_mask() == before
        return handle

    handle = asyncio.run(main())
    (record,) = _placement_records(caplog)
    assert record.startswith(
        f"WARNING worker {handle.index} could not take cpu {nowhere} (OSError"
    )
