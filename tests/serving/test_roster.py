"""The replica roster, driven with an in-process replica that dies on command.

:class:`~repro.serving.workers.roster.WorkerPool` holds every fleet rule
once for both backends; these tests pin the rules themselves — no process
is spawned, no model is built.  A :class:`FakeReplica` echoes its payloads,
can be held inside a batch, killed silently, or killed by the real
:class:`~repro.serving.fleet.FaultPlan` (``mid_compute``: dies holding the
batch; ``post_response``: answers, then dies idle), and logs its teardown;
the :class:`FakePool` around it logs what each generation opens and closes.
``FakePool(workers, depth=2)`` makes replicas that hold two batches at
once, the way a process worker's two ring slots do.

Every ``run()`` goes through :func:`run`, which checks the roster's
conservation law: exactly one result per payload, or an exception.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serving import FaultPlan, WorkerCrashed
from repro.serving.workers.roster import Replica, ReplicaDied, WorkerPool

WAIT_S = 5.0  # far above anything here; a wait this long is a failure


class FakeReplica(Replica):
    def __init__(self, pool: "FakePool") -> None:
        super().__init__()
        self.pool = pool
        self.depth = pool.depth
        self.generation = pool.generation
        self.dead = False  # the "worker" behind the replica

    async def serve(self, off_loop, seq, token, payloads, fault):
        if self.depth == 1:
            return await super().serve(off_loop, seq, token, payloads, fault)
        # a deep replica's places run side by side, not under one lock
        return await off_loop(self.execute, seq, token, payloads, fault)

    def execute(self, seq, token, payloads, fault):
        entered, release = self.pool.holds.get(seq, (None, None))
        if entered is not None:
            entered.set()
            assert release.wait(WAIT_S), "the test never released the batch"
        if self.dead or fault == "mid_compute":
            self.dead = True
            raise ReplicaDied(f"fake replica died under batch {seq}")
        self.cache_misses += 1
        self.pool.log.append(("batch", seq, self))
        if fault == "post_response":
            self.dead = True
        return [(seq, payload) for payload in payloads]

    def is_alive(self) -> bool:
        return not self.dead

    def reap(self) -> None:
        self.pool.reaping.set()
        assert self.pool.reap_gate.wait(WAIT_S), "the test never released the reap"
        self.pool.log.append(("reap", self))
        super().reap()

    def shutdown(self) -> None:
        if self.alive:
            self.pool.log.append(("shutdown", self))
        super().shutdown()


class FakePool(WorkerPool):
    def __init__(self, workers: int, depth: int = 1, **kwargs) -> None:
        geometry = dict(max_batch_size=4, input_shape=(1,))
        super().__init__("engine-0", workers, None, None, **geometry, **kwargs)
        self.depth = depth
        self.log: list[tuple] = []
        #: seq -> (entered, release): hold that batch inside its replica
        self.holds: dict[int, tuple[threading.Event, threading.Event]] = {}
        self.reaping = threading.Event()
        self.reap_gate = threading.Event()
        self.reap_gate.set()

    def hold(self, seq: int) -> tuple[threading.Event, threading.Event]:
        self.holds[seq] = (threading.Event(), threading.Event())
        return self.holds[seq]

    def _make_replicas(self, count, timeout):
        return [FakeReplica(self) for _ in range(count)]

    def _open_generation(self, engine, generation):
        self.log.append(("open", generation))
        return generation

    def _close_generation(self, shared):
        self.log.append(("close", shared))


@contextlib.asynccontextmanager
async def serving(workers: int, **kwargs):
    pool = FakePool(workers, **kwargs)
    pool.threads = executor = ThreadPoolExecutor(max_workers=8)
    try:
        await pool.start(executor)
        yield pool
    finally:
        pool.reap_gate.set()
        for _, release in pool.holds.values():
            release.set()
        await pool.stop()
        executor.shutdown(wait=True)


async def run(pool: FakePool, seq: int, size: int = 1):
    """One batch through the roster: ``size`` results back, or it raises."""
    payloads = [f"x{seq}.{i}" for i in range(size)]
    results = await asyncio.wait_for(pool.run(seq, payloads), WAIT_S)
    assert results == [(seq, payload) for payload in payloads]
    return results


async def wait_for_event(event: threading.Event) -> None:
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, event.wait, WAIT_S), "never happened"


async def wait_until(predicate) -> None:
    deadline = asyncio.get_running_loop().time() + WAIT_S
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition not reached"
        await asyncio.sleep(0.005)


def batches(pool: FakePool) -> list[tuple]:
    return [entry for entry in pool.log if entry[0] == "batch"]


# --------------------------------------------------------------------------- #
# crashes
# --------------------------------------------------------------------------- #
def test_death_mid_batch_is_retried_on_a_sibling_and_counted_once():
    """The batch path and the liveness scan may both see one death.

    The dying replica's reap is held open, so the scan runs while the
    batch path is still reaping: both call ``reap`` (idempotent), the
    death counts once, and the batch comes back from the sibling.
    """

    async def main():
        plan = FaultPlan([(1, "mid_compute")])
        async with serving(2, fault_plan=plan) as pool:
            sibling, victim = pool._replicas  # checkout order: batch 1 draws #2
            await run(pool, 0)
            pool.reap_gate.clear()
            batch = asyncio.ensure_future(run(pool, 1, size=3))
            await wait_for_event(pool.reaping)
            scan = asyncio.ensure_future(pool.ensure_healthy())
            await asyncio.sleep(0.02)
            assert not batch.done() and not scan.done()
            pool.reap_gate.set()
            await batch
            assert await asyncio.wait_for(scan, WAIT_S) == 1
            assert plan.pending == ()
            assert pool.worker_crashes == 1
            assert pool.workers_respawned == 1
            assert [e for e in pool.log if e[0] == "reap"] == [("reap", victim)] * 2
            assert batches(pool) == [("batch", 0, sibling), ("batch", 1, sibling)]
            assert victim not in pool._replicas and pool.current_workers == 2
            # the corpse took no counts with it
            assert pool.cache_misses == 2

    asyncio.run(main())


def test_total_death_reaches_every_parked_waiter_when_unsupervised():
    async def main():
        async with serving(1) as pool:
            (only,) = pool._replicas
            entered, release = pool.hold(0)
            holder = asyncio.ensure_future(run(pool, 0))
            await wait_for_event(entered)
            parked = [asyncio.ensure_future(run(pool, seq)) for seq in (1, 2, 3)]
            await asyncio.sleep(0.02)  # all three wait on the empty checkout
            only.dead = True
            release.set()
            outcomes = await asyncio.wait_for(
                asyncio.gather(holder, *parked, return_exceptions=True), WAIT_S
            )
            # the poison token wakes each waiter in turn; nobody hangs
            assert [type(o) for o in outcomes] == [WorkerCrashed] * 4
            assert pool.worker_crashes == 1
            with pytest.raises(WorkerCrashed):
                await run(pool, 4)

    asyncio.run(main())


def test_supervised_total_death_waits_bounded_then_serves_the_respawn():
    async def main():
        async with serving(1, respawn_wait=0.1) as pool:
            pool.supervised = True  # what WorkerSupervisor.start() sets
            (only,) = pool._replicas
            only.dead = True
            # nobody heals: the batch parks for respawn_wait, then gives up
            with pytest.raises(WorkerCrashed, match="no respawn"):
                await run(pool, 0)
            # a scan delivers a respawn while the next batch is parked
            batch = asyncio.ensure_future(run(pool, 1, size=2))
            await asyncio.sleep(0.02)
            assert not batch.done()
            assert await pool.ensure_healthy() == 1
            await batch
            (respawn,) = pool._replicas
            assert batches(pool) == [("batch", 1, respawn)]
            assert (pool.worker_crashes, pool.workers_respawned) == (1, 1)

    asyncio.run(main())


@pytest.mark.parametrize("supervised", [False, True])
def test_a_death_whose_reap_outlasts_stop_raises_worker_crashed(supervised):
    """stop() clears the checkout while a batch is still burying its replica.

    The batch path then neither hands the corpse's place back nor parks on
    the checkout again: it raises the pool's typed error.
    """

    async def main():
        plan = FaultPlan([(0, "mid_compute")])
        async with serving(1, fault_plan=plan) as pool:
            pool.supervised = supervised
            pool.reap_gate.clear()
            batch = asyncio.ensure_future(pool.run(0, ["x0.0"]))
            await wait_for_event(pool.reaping)
            stopping = asyncio.ensure_future(pool.stop())
            await wait_until(lambda: pool._checkout is None)
            pool.reap_gate.set()
            with pytest.raises(WorkerCrashed):
                await asyncio.wait_for(batch, WAIT_S)
            await asyncio.wait_for(stopping, WAIT_S)
            assert pool._replicas == [] and pool.worker_crashes == 1

    asyncio.run(main())


@pytest.mark.parametrize("depth", [1, 2])
def test_stop_wakes_a_batch_parked_on_checkout_with_worker_crashed(depth):
    """stop() drops the checkout queue a batch is parked on.

    The held batches still return their rows once released, and the
    parked one raises the pool's typed error instead of waiting forever.
    """

    async def main():
        async with serving(1, depth=depth) as pool:
            holds = [pool.hold(seq) for seq in range(depth)]
            held = [asyncio.ensure_future(run(pool, seq)) for seq in range(depth)]
            for entered, _ in holds:
                await wait_for_event(entered)
            parked = asyncio.ensure_future(pool.run(depth, ["parked"]))
            await asyncio.sleep(0.02)
            assert not parked.done()
            stopping = asyncio.ensure_future(pool.stop())
            await wait_until(lambda: pool._checkout is None)
            for _, release in holds:
                release.set()
            await asyncio.wait_for(asyncio.gather(*held), WAIT_S)
            await asyncio.wait_for(stopping, WAIT_S)
            with pytest.raises(WorkerCrashed):
                await asyncio.wait_for(parked, WAIT_S)

    asyncio.run(main())


def test_silent_death_is_found_only_by_the_scan_and_respawned_to_target():
    async def main():
        plan = FaultPlan([(0, "post_response")])
        async with serving(2, fault_plan=plan) as pool:
            pool.supervised = True
            victim, sibling = pool._replicas
            await run(pool, 0)  # answered — then the worker died idle
            assert pool.worker_crashes == 0
            assert (pool.current_workers, pool.alive_workers) == (2, 1)
            assert await pool.ensure_healthy() == 1
            assert (pool.current_workers, pool.alive_workers) == (2, 2)
            assert (pool.worker_crashes, pool.workers_respawned) == (1, 1)
            assert victim not in pool._replicas and not victim.alive
            assert await pool.ensure_healthy() == 0  # nothing left to heal
            # the corpse's stale checkout token is swallowed, never served
            for seq in range(1, 7):
                await run(pool, seq)
            assert {entry[2] for entry in batches(pool)[1:]} == set(pool._replicas)
            assert pool.cache_misses == 7

    asyncio.run(main())


def test_the_scan_leaves_a_replica_with_a_batch_in_flight_alone():
    """``in_flight`` is a count: one of two places taken still means busy."""

    async def main():
        async with serving(2, depth=2) as pool:
            victim, sibling = pool._replicas
            entered, release = pool.hold(0)
            batch = asyncio.ensure_future(run(pool, 0, size=2))
            await wait_for_event(entered)
            victim.dead = True
            # its own exchange will surface the death; the scan must not
            # reap a replica from under a batch
            assert victim.in_flight == 1
            assert await pool.ensure_healthy() == 0
            assert victim.alive and pool.worker_crashes == 0
            release.set()
            await batch  # died under it, retried on the sibling
            assert batches(pool) == [("batch", 0, sibling)]
            assert pool.worker_crashes == 1 and not victim.alive
            # the corpse's spare place is still in checkout: it is swallowed
            for seq in range(1, 5):
                await run(pool, seq)
            assert {entry[2] for entry in batches(pool)} == {sibling}

    asyncio.run(main())


# --------------------------------------------------------------------------- #
# depth: how many batches one replica holds
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("depth", [1, 2])
def test_a_replica_is_handed_as_many_batches_as_it_is_deep(depth):
    async def main():
        async with serving(1, depth=depth) as pool:
            (only,) = pool._replicas
            assert pool._checkout.qsize() == depth
            entered, release = pool.hold(0)
            first = asyncio.ensure_future(run(pool, 0))
            await wait_for_event(entered)
            second = asyncio.ensure_future(run(pool, 1, size=2))
            if depth == 2:
                # handed over, served and back before the first returns
                await second
                assert only.in_flight == 1 and not first.done()
            else:
                await asyncio.sleep(0.02)
                assert only.in_flight == 1 and not second.done()
            release.set()
            await asyncio.gather(first, second)
            order = [0, 1] if depth == 1 else [1, 0]
            assert [entry[1] for entry in batches(pool)] == order
            assert only.in_flight == 0 and pool._checkout.qsize() == depth

    asyncio.run(main())


def test_a_second_batch_joins_a_busy_replica_only_when_every_replica_is_busy():
    """Checkout hands out every first place before any second one."""

    async def main():
        async with serving(2, depth=2) as pool:
            one, other = pool._replicas
            held = [pool.hold(seq) for seq in range(3)]
            inflight = [asyncio.ensure_future(run(pool, seq)) for seq in range(3)]
            for entered, _ in held:
                await wait_for_event(entered)
            assert (one.in_flight, other.in_flight) == (2, 1)
            # the first place to come back is the next to go out, whoever
            # else has a second place free
            held[1][1].set()
            await inflight[1]
            assert pool._checkout._queue[0][-1] is other
            await run(pool, 3)
            assert batches(pool) == [("batch", 1, other), ("batch", 3, other)]
            for _, release in held:
                release.set()
            await asyncio.gather(*inflight)

    asyncio.run(main())


def test_a_retiring_replica_is_shut_down_once_by_its_last_check_in():
    async def main():
        async with serving(2, depth=2) as pool:
            keeper, retiree = pool._replicas
            held = [pool.hold(seq) for seq in range(4)]
            # checkout offers every replica's first place, then the second
            # ones: batches 0 and 2 are the keeper's, 1 and 3 the retiree's
            inflight = [asyncio.ensure_future(run(pool, seq)) for seq in range(4)]
            for entered, _ in held:
                await wait_for_event(entered)
            assert (keeper.in_flight, retiree.in_flight) == (2, 2)
            await pool.scale_to(1)
            assert retiree.retiring and retiree.alive
            held[1][1].set()
            await inflight[1]
            await asyncio.sleep(0.02)
            # one batch is still inside it: nothing may shut it down yet
            assert retiree.in_flight == 1 and retiree.alive
            assert ("shutdown", retiree) not in pool.log
            held[3][1].set()
            await inflight[3]
            await wait_until(lambda: not retiree.alive)
            assert pool.log.count(("shutdown", retiree)) == 1
            assert pool.log.index(("batch", 3, retiree)) < pool.log.index(
                ("shutdown", retiree)
            )
            for seq in (0, 2):
                held[seq][1].set()
            await asyncio.gather(inflight[0], inflight[2])
            assert pool._replicas == [keeper] and pool._checkout.qsize() == 2
            assert pool.cache_misses == 4

    asyncio.run(main())


def test_a_retiring_place_met_in_checkout_is_dropped_without_a_shutdown():
    """A waiter may be handed a place just before its replica is retired.

    The place is not served and not returned — and while the replica's
    other batch is in flight it is not shut down either: that batch's
    check-in does it, once.
    """

    async def main():
        async with serving(2, depth=2) as pool:
            retiree, sibling = pool._replicas
            held = [pool.hold(seq) for seq in (0, 1)]
            stragglers = [asyncio.ensure_future(run(pool, seq)) for seq in (0, 1)]
            for entered, _ in held:
                await wait_for_event(entered)
            # marked but not drained: what a parked waiter sees when the
            # mark lands between its wake-up and its next step
            retiree.retiring = True
            assert pool._checkout._queue[0][-1] is retiree  # its second place
            await run(pool, 2)
            assert batches(pool) == [("batch", 2, sibling)]
            assert retiree.alive and ("shutdown", retiree) not in pool.log
            assert retiree not in [place[-1] for place in pool._checkout._queue]
            for _, release in held:
                release.set()
            await asyncio.gather(*stragglers)
            await wait_until(lambda: not retiree.alive)
            assert pool.log.count(("shutdown", retiree)) == 1
            assert pool._replicas == [sibling]

    asyncio.run(main())


# --------------------------------------------------------------------------- #
# elasticity and generations
# --------------------------------------------------------------------------- #
def test_scale_down_drains_the_in_flight_batch_before_shutdown():
    async def main():
        async with serving(2) as pool:
            keeper, retiree = pool._replicas
            held = [pool.hold(seq) for seq in (0, 1)]
            inflight = [asyncio.ensure_future(run(pool, seq, size=2)) for seq in (0, 1)]
            for entered, _ in held:
                await wait_for_event(entered)
            await pool.scale_to(1)
            # marked, not torn down: the batch inside it still owns it
            assert retiree.retiring and retiree.alive and retiree.in_flight
            assert pool.current_workers == 1
            assert not any(entry[0] == "shutdown" for entry in pool.log)
            for _, release in held:
                release.set()
            await asyncio.gather(*inflight)
            await wait_until(lambda: not retiree.alive)
            assert pool.log.index(("batch", 1, retiree)) < pool.log.index(
                ("shutdown", retiree)
            )
            assert pool._replicas == [keeper] and pool.scale_events == 1
            await run(pool, 2)
            assert pool.cache_misses == 3  # the retiree's batch stays counted

    asyncio.run(main())


def test_swap_under_load_drains_old_cohort_and_closes_its_generation_once():
    async def main():
        async with serving(2) as pool:
            old = list(pool._replicas)
            entered, release = pool.hold(0)
            straggler = asyncio.ensure_future(run(pool, 0))
            await wait_for_event(entered)
            swap = asyncio.ensure_future(pool.swap_engine("engine-1"))
            await wait_until(lambda: all(r.retiring for r in old))
            # the successor cohort is enqueued: from here on no batch may
            # start on generation 0, though one is still running there
            for seq in range(1, 9):
                await run(pool, seq)
            assert {entry[2].generation for entry in batches(pool)} == {1}
            assert not swap.done() and ("close", 0) not in pool.log
            release.set()
            await straggler  # served by the old engine's replica, not failed
            assert await asyncio.wait_for(swap, WAIT_S) == 1
            assert batches(pool)[-1][1:] == (0, old[0])
            closed = pool.log.index(("close", 0))
            assert all(pool.log.index(("shutdown", r)) < closed for r in old)
            assert pool.engine == "engine-1" and pool.generation == 1
            assert [r.generation for r in pool._replicas] == [1, 1]
            assert pool.cache_misses == 9
        generations = [entry for entry in pool.log if entry[0] in ("open", "close")]
        assert generations == [("open", 0), ("open", 1), ("close", 0), ("close", 1)]

    asyncio.run(main())


def test_a_stopped_pool_only_records_scale_and_swap():
    async def main():
        async with serving(2) as pool:
            await run(pool, 0)
            await pool.stop()
            assert pool._replicas == [] and pool.cache_misses == 1
            await pool.scale_to(3)
            assert await pool.swap_engine("engine-1") == 1
            assert (pool.current_workers, pool.scale_events) == (3, 0)
            assert pool.log[-1] == ("close", 0)  # nothing opened or made
            await pool.start(pool.threads)
            assert [r.generation for r in pool._replicas] == [1, 1, 1]
            await run(pool, 1)
            assert pool.cache_misses == 2

    asyncio.run(main())


# --------------------------------------------------------------------------- #
# conservation
# --------------------------------------------------------------------------- #
def _conservation_under_three_deaths(depth: int) -> None:
    async def main():
        # batch 6 dies twice: on its first replica and on the one it retries on
        plan = FaultPlan([(2, "mid_compute"), (6, "mid_compute"), (6, "mid_compute")])
        async with serving(3, depth=depth, fault_plan=plan) as pool:
            outcomes = await asyncio.gather(
                *(run(pool, seq, size=1 + seq % 3) for seq in range(12)),
                return_exceptions=True,
            )
            # three replicas, three deaths: whoever was served got exactly
            # its rows — run() checked — and everyone else was told
            failed = [o for o in outcomes if isinstance(o, BaseException)]
            assert failed and all(isinstance(o, WorkerCrashed) for o in failed)
            assert isinstance(outcomes[6], WorkerCrashed)
            assert len(batches(pool)) == len(outcomes) - len(failed)
            assert plan.pending == () and pool.worker_crashes == 3
            with pytest.raises(WorkerCrashed):
                await run(pool, 12)

    asyncio.run(main())


def test_every_run_returns_one_result_per_payload_or_raises():
    """Retries never duplicate or drop a row; a lost fleet raises, always."""
    _conservation_under_three_deaths(depth=1)


def test_every_run_returns_its_rows_or_raises_with_two_batches_per_replica():
    """... also when a death takes two batches with it."""
    _conservation_under_three_deaths(depth=2)
