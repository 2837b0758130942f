"""The worker ring: slot mechanics, the sizing contract, crashes, teardown.

The shm ring never changes what is served: the process backend is
bit-identical to the thread backend, a worker crash mid-slot retries on a
sibling and unlinks the dead worker's segment, and ``stop()`` releases
every ring segment.  The batch geometry is a contract: the pool sizes every
slot exactly for what it serves, so each batch and response fits by
construction — and a geometry that lies fails that one batch loudly
instead of degrading silently.  A replica holds at most ``depth``
exchanges (one staging buffer per thread replica; two ring slots per ring
worker, answered in doorbell order), and
each keeps its place until its reply has been read — so a cancelled batch
can never be staged over or hand its reply to a later one, and a worker
that dies fails every batch it held exactly once.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import BatcherConfig, FaultPlan, ServingConfig, ServingEngine
from repro.serving.workers.procpool import ProcessWorkerPool, _RingHandle
from repro.serving.workers.ring import BatchRing
from repro.serving.workers.roster import ReplicaDied


NUM_SAMPLES = 6

X = np.random.default_rng(7).normal(size=(8, 1, 12, 12))


def _model(seed=0):
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=seed),
    )


def _serve_sequentially(backend: str, workers: int = 2, **kwargs):
    """Serve X one request at a time."""
    model = _model()
    server = ServingEngine(
        model,
        ServingConfig(
            num_samples=NUM_SAMPLES, workers=workers, worker_backend=backend, **kwargs
        ),
    )

    async def main():
        async with server:
            results = [await server.submit(x) for x in X]
            return results, server.stats()

    return asyncio.run(main())


def _next_victim(server: ServingEngine):
    return server._pool._checkout._queue[0][-1]  # (level, ticket, replica)


# --------------------------------------------------------------------------- #
# slot mechanics (in-process unit tests)
# --------------------------------------------------------------------------- #
def test_ring_roundtrip_through_attached_view():
    ring = BatchRing.create(slots=2, request_bytes=4096, response_bytes=4096)
    try:
        attached = BatchRing.attached(ring.manifest)
        dest = ring.stage_request(1, (4, 2, 3))
        assert dest.shape == (4, 2, 3)
        batch = np.arange(24, dtype=np.float64).reshape(4, 2, 3)
        dest[...] = batch
        np.testing.assert_array_equal(attached.read_request(1), batch)

        probs = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        exits = np.array([0, 1, 1], dtype=np.int64)
        attached.write_response(1, [probs, exits])
        got_probs, got_exits = ring.read_response(1)
        np.testing.assert_array_equal(got_probs, probs)
        np.testing.assert_array_equal(got_exits, exits)
        assert got_exits.dtype == np.int64
    finally:
        ring.release()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=ring.manifest.segment_name)


def test_ring_refuses_what_does_not_fit():
    """A misfit raises, naming capacity and need, and leaves the slot usable."""
    ring = BatchRing.create(slots=1, request_bytes=64, response_bytes=64)
    try:
        with pytest.raises(ValueError, match="request region .* 64 bytes.* 128 bytes"):
            ring.stage_request(0, (4, 4))
        assert ring.stage_request(0, (2, 4)).shape == (2, 4)  # 64 B fits
        with pytest.raises(ValueError, match="response region .* 64 bytes.* 96 bytes"):
            ring.write_response(0, [np.zeros((3, 4))])
        # two arrays: the second starts on the next 64-byte boundary
        with pytest.raises(ValueError, match="64 bytes.* 72 bytes"):
            ring.write_response(0, [np.zeros(1), np.zeros(1)])
        with pytest.raises(ValueError, match="cannot carry float32"):
            ring.write_response(0, [np.zeros(4, dtype=np.float32)])
        ring.write_response(0, [np.arange(8.0)])
        np.testing.assert_array_equal(ring.read_response(0)[0], np.arange(8.0))
    finally:
        ring.release()
    with pytest.raises(ReplicaDied):  # its worker was reaped
        ring.stage_request(0, (2, 4))


@pytest.mark.parametrize("classes", [2, 5, 10])
@pytest.mark.parametrize("max_batch", [1, 3, 32])
@pytest.mark.parametrize("num_samples", [None, 1, 10])
def test_every_servable_batch_fits_the_slot_the_pool_sized(
    num_samples, max_batch, classes
):
    """Spawn-free: the pool's own geometry holds every batch it can form.

    Both response layouts — MC ``(S, N, C)`` float64, early exit ``(N, C)``
    float64 plus ``(N,)`` int64, the second array on its own 64-byte
    boundary — at every ``N`` up to the largest batch.
    """
    shape = (1, 12, 12)
    model = MultiExitBayesNet(
        lenet5_spec(input_shape=shape, num_classes=classes, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0),
    )
    pool = ProcessWorkerPool(
        model.engine, 1, num_samples, None, max_batch_size=max_batch, input_shape=shape
    )
    samples = num_samples or model.config.default_mc_samples
    rng = np.random.default_rng(0)
    ring = BatchRing.create(1, *pool._ring_geometry())
    try:
        for rows in range(1, max_batch + 1):
            assert ring.stage_request(0, (rows, *shape)).shape == (rows, *shape)
            exits = rng.integers(0, 2, size=rows, dtype=np.int64)
            for arrays in (
                [rng.random((samples, rows, classes))],
                [rng.random((rows, classes)), exits],
            ):
                ring.write_response(0, arrays)
                got = ring.read_response(0)
                assert len(got) == len(arrays)
                for want, have in zip(arrays, got):
                    assert have.dtype == want.dtype
                    np.testing.assert_array_equal(have, want)
    finally:
        ring.release()


def test_ring_read_returns_fresh_view_objects():
    """Each read maps its own view: callers may hold one across a recycle."""
    ring = BatchRing.create(slots=1, request_bytes=1024, response_bytes=1024)
    try:
        ring.stage_request(0, (4, 4))
        first = ring.read_request(0)
        second = ring.read_request(0)
        assert first is not second
    finally:
        ring.release()


# --------------------------------------------------------------------------- #
# the full serving stack
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_thread_backend_ships_no_ring_batches():
    results, stats = _serve_sequentially("thread", workers=1)
    assert stats.transport_ring_batches == 0
    assert len(results) == len(X)


@pytest.mark.timeout(120)
def test_early_exit_batches_are_served_from_their_slots(caplog):
    """``num_samples=1``, early exit, batches of three: every one by ring.

    ``(3, 5)`` float64 is 120 bytes, so the exit indices start at byte 128
    and end at 152 — a slot sized as ``8 * N * (S * C + 1)`` = 144 bytes
    could not hold its own full batch.
    """
    caplog.set_level(logging.WARNING, logger="repro.serving.workers.procpool")
    batches = [[0, 1, 2], [3, 4, 5], [6, 7, 0], [1]]

    async def serve(backend):
        config = ServingConfig(
            num_samples=1,
            early_exit_threshold=0.5,
            workers=1,
            worker_backend=backend,
            batcher=BatcherConfig(max_batch_size=3),
        )
        async with ServingEngine(_model(), config) as server:
            got = [
                await server._pool.run(seq, [X[i] for i in rows])
                for seq, rows in enumerate(batches)
            ]
            return got, server.stats()

    got, stats = asyncio.run(serve("process"))
    want, _ = asyncio.run(serve("thread"))
    for batch, ref in zip(got, want):
        assert len(batch) == len(ref)
        for res, expected in zip(batch, ref):
            np.testing.assert_array_equal(res.probs, expected.probs)
            assert (res.entropy, res.exit_index) == (expected.entropy, expected.exit_index)
    assert stats.transport_ring_batches == len(batches)
    assert not caplog.records


@pytest.mark.timeout(120)
@pytest.mark.parametrize("leg", ["request", "response"])
def test_a_lying_geometry_fails_that_batch_loudly_and_nothing_else(monkeypatch, leg):
    """The contract's other side: a slot too small for the batch it is given.

    One row fits, two do not.  The two-row batch raises — on the request
    leg from the parent's staging, on the response leg through the worker's
    error reply — with a message naming the capacity and the need; the
    worker lives, its slot is handed back and the next batch is served from
    it, bit-identical to an undisturbed server.
    """
    one_row = {
        "request": (8 * X[0].size, 1 << 20),
        "response": (1 << 20, 8 * NUM_SAMPLES * 5),
    }[leg]
    monkeypatch.setattr(ProcessWorkerPool, "_ring_geometry", lambda self: one_row)
    capacity, need = (1152, 2304) if leg == "request" else (240, 480)

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="process"),
        )
        async with server:
            pool = server._pool
            (handle,) = pool._replicas
            first = await pool.run(0, [X[0]])
            with pytest.raises(
                RuntimeError if leg == "response" else ValueError,
                match=f"{leg} region .* {capacity} bytes.* {need} bytes",
            ):
                await pool.run(1, [X[1], X[2]])
            _assert_idle(handle)
            assert handle.is_alive() and handle.in_flight == 0
            third = await pool.run(2, [X[3]])
            _assert_idle(handle)
            return [first, third], server.stats()

    got, stats = asyncio.run(main())
    want = _run_directly("thread", [[0], [1, 2], [3]])
    _assert_same_bits(got[0], want[0])
    _assert_same_bits(got[1], want[2])
    assert stats.worker_crashes == 0


CANCELLED_SEQ = 2
HOLD_S = 30.0  # far above any exchange; a wait this long is a failure


async def _until_doorbell(handles, replies: int = 1) -> None:
    """Yield until a handle has ``replies`` in flight (bounded, deterministic).

    A batch stages its rows and rings its doorbell in its task's first
    step, and a reply can only be read by a *later* loop turn — so the
    first turn that sees the exchanges in flight sits between the two.
    """
    for _ in range(10):
        await asyncio.sleep(0)
        if any(h.replies_in_flight >= replies for h in handles):
            return
    raise AssertionError("the batches never rang their doorbells")


@contextlib.contextmanager
def _frozen(handle):
    """Inside the block the worker cannot answer: replies stay in flight."""
    os.kill(handle.process.pid, signal.SIGSTOP)
    try:
        yield
    finally:
        os.kill(handle.process.pid, signal.SIGCONT)


async def _run_with_doorbells_out(pool, victim, batches, doorbells: int = 2) -> list:
    """Run ``batches`` at once; ``victim`` cannot answer (or die) before its
    ``doorbells`` are all in the pipe, so who is staged behind whom is not a
    race."""
    with _frozen(victim):
        tasks = [
            asyncio.ensure_future(pool.run(seq, [X[i] for i in rows]))
            for seq, rows in enumerate(batches)
        ]
        await _until_doorbell([victim], replies=doorbells)
    return await asyncio.gather(*tasks)


def _assert_idle(handle) -> None:
    """Every place handed back: both slots, the lock, the readers."""
    assert handle.replies_in_flight == 0 and handle._owned == 0
    assert sorted(handle._free_slots) == list(range(handle.depth))
    assert not handle._lock.locked() and handle._watched is None


class _PipeSpy:
    """Stands in for a handle's ``conn``: what was sent, and in what state."""

    def __init__(self, handle) -> None:
        self._conn = handle.conn
        #: (frame kind, seq or None, ring slots owned when it was sent)
        self.sent: list[tuple] = []
        self._handle = handle

    def send(self, frame):
        seq = frame[1] if len(frame) > 1 else None
        self.sent.append((frame[0], seq, self._handle._owned))
        self._conn.send(frame)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _held(stage, armed, staging, release, staged_rows=None):
    """``stage`` that blocks the exchange it is armed for until ``release``."""

    def held_stage(payloads):
        if armed.is_set():
            armed.clear()
            staging.set()
            assert release.wait(HOLD_S), "the test never released"
        if staged_rows is not None:
            staged_rows.append(payloads[0])
        return stage(payloads)

    return held_stage


async def _cancel_inside_a_thread_replica(monkeypatch, staged_rows: list):
    """Cancel batch 2 while an executor thread is inside the replica.

    Only a replica with a live sibling computes on the executor (a lone one
    computes on the loop, where no batch can be cancelled mid-compute), so
    the sibling is held inside a batch of its own throughout and every
    batch of the scene goes to the other replica.  The in-flight window is
    *held* open, not observed: the cancelled batch's staging step (first
    step under the replica's lock) blocks on an event the test sets only
    after the cancellation has landed and the next batch has been launched
    behind it.
    """
    armed = threading.Event()  # the next exchange is the one to hold
    staging = threading.Event()  # ... and it is inside the exchange now
    release = threading.Event()
    sibling_armed, sibling_staging = threading.Event(), threading.Event()
    sibling_release = threading.Event()
    executor = ThreadPoolExecutor(max_workers=4)
    server = ServingEngine(
        _model(),
        ServingConfig(num_samples=NUM_SAMPLES, workers=2, worker_backend="thread"),
        executor=executor,
    )
    loop = asyncio.get_running_loop()
    try:
        async with server:
            pool = server._pool
            sibling = _next_victim(server)
            (replica,) = [r for r in pool._replicas if r is not sibling]
            monkeypatch.setattr(
                sibling.stager,
                "stage",
                _held(sibling.stager.stage, sibling_armed, sibling_staging, sibling_release),
            )
            sibling_armed.set()
            busy = asyncio.ensure_future(pool.run(len(X), [X[0]]))
            entered = await loop.run_in_executor(None, sibling_staging.wait, HOLD_S)
            assert entered and sibling.in_flight == 1, "the sibling is not busy"
            monkeypatch.setattr(
                replica.stager,
                "stage",
                _held(replica.stager.stage, armed, staging, release, staged_rows),
            )
            results = {}
            for seq in range(CANCELLED_SEQ):
                (results[seq],) = await pool.run(seq, [X[seq]])

            armed.set()
            batch = asyncio.ensure_future(pool.run(CANCELLED_SEQ, [X[CANCELLED_SEQ]]))
            entered = await loop.run_in_executor(None, staging.wait, HOLD_S)
            assert entered, "the cancelled batch never reached the exchange"
            assert replica._lock.locked()
            batch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await batch

            # the replica is back in checkout while its exchange is
            # still held: the next batch must queue behind the lock
            following = asyncio.ensure_future(
                pool.run(CANCELLED_SEQ + 1, [X[CANCELLED_SEQ + 1]])
            )
            await asyncio.sleep(0.05)
            assert not following.done(), "a batch overtook the held exchange"
            assert len(staged_rows) == CANCELLED_SEQ, "staged over a held batch"
            release.set()
            (results[CANCELLED_SEQ + 1],) = await asyncio.wait_for(following, HOLD_S)
            for seq in range(CANCELLED_SEQ + 2, len(X)):
                (results[seq],) = await pool.run(seq, [X[seq]])
            assert not busy.done() and sibling.in_flight == 1
            sibling_release.set()
            await asyncio.wait_for(busy, HOLD_S)
            return results, server.stats()
    finally:
        release.set()
        sibling_release.set()
        executor.shutdown(wait=True)


async def _cancel_between_doorbell_and_reply(monkeypatch, staged_rows: list):
    """Cancel batch 2 after its doorbell, with batch 3 staged behind it.

    No thread is involved: a batch's first step stages the rows and rings
    the doorbell, and its reply can only be read by a *later* loop turn —
    so the turn in which the handle first reports two replies in flight is
    a deterministic place to cancel.  The cancelled batch's slot then stays
    owned until the loop has read its reply and thrown it away; batch 4 is
    handed the handle's free place at once but may neither stage nor ring
    before that, and the reply it finally takes is its own.
    """
    server = ServingEngine(
        _model(),
        ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="process"),
    )
    async with server:
        pool = server._pool
        (handle,) = pool._replicas
        assert handle.depth == 2
        events: list[tuple] = []
        stage, finish = handle._stage, handle._finish

        def logged_stage(slot, payloads):
            staged_rows.append(payloads[0])
            events.append(("doorbell", len(staged_rows) - 1, slot))
            assert handle.replies_in_flight < handle.depth
            return stage(slot, payloads)

        def logged_finish(*args, **kwargs):
            head = handle._exchanges[0]
            fate = "discarded" if head.results.done() else "taken"
            events.append(("reply read", fate, head.slot))
            return finish(*args, **kwargs)

        monkeypatch.setattr(handle, "_stage", logged_stage)
        monkeypatch.setattr(handle, "_finish", logged_finish)
        results = {}
        for seq in range(CANCELLED_SEQ):
            (results[seq],) = await pool.run(seq, [X[seq]])
        _assert_idle(handle)

        with _frozen(handle):
            batch = asyncio.ensure_future(pool.run(CANCELLED_SEQ, [X[CANCELLED_SEQ]]))
            behind = asyncio.ensure_future(
                pool.run(CANCELLED_SEQ + 1, [X[CANCELLED_SEQ + 1]])
            )
            await _until_doorbell([handle], replies=2)
            (_, _, cancelled_slot), (_, _, other_slot) = events[-2:]
            assert {cancelled_slot, other_slot} == {0, 1}
            batch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await batch

            # one place is back in checkout, but both replies are still in
            # flight and both slots still owned
            assert handle.replies_in_flight == 2 and handle._lock.locked()
            assert handle.in_flight == 1 and pool._checkout.qsize() == 1
            following = asyncio.ensure_future(
                pool.run(CANCELLED_SEQ + 2, [X[CANCELLED_SEQ + 2]])
            )
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            # ... so the third batch holds the place but has not touched a
            # slot or the pipe: neither reply in flight is its own
            assert handle.in_flight == 2 and not following.done()
            assert events[-1] == ("doorbell", CANCELLED_SEQ + 1, other_slot)
        (results[CANCELLED_SEQ + 1],) = await asyncio.wait_for(behind, HOLD_S)
        (results[CANCELLED_SEQ + 2],) = await asyncio.wait_for(following, HOLD_S)
        tail = events[-5:]
        # the discarded reply freed the slot the third batch then staged
        # into; replies were read in doorbell order, each from its own slot
        assert tail.index(("reply read", "discarded", cancelled_slot)) < tail.index(
            ("doorbell", CANCELLED_SEQ + 2, cancelled_slot)
        )
        assert [e for e in tail if e[0] == "reply read"] == [
            ("reply read", "discarded", cancelled_slot),
            ("reply read", "taken", other_slot),
            ("reply read", "taken", cancelled_slot),
        ]
        for seq in range(CANCELLED_SEQ + 3, len(X)):
            (results[seq],) = await pool.run(seq, [X[seq]])
        _assert_idle(handle)
        return results, server.stats()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_cancelled_batch_keeps_the_exchange_strictly_serial(monkeypatch, backend):
    """A replica never holds more exchanges than it has places for.

    Cancelling the task awaiting an in-flight batch returns its place to
    checkout while its exchange is still going: an executor thread inside
    a thread replica that has a live sibling (holding its lock), a reply in
    flight from a process worker (owning one of its two ring slots).  The
    next batch waits for that exchange to end instead of staging over it —
    over the pinned
    staging buffer (and the engine) of a thread replica, or over a ring
    slot whose stale reply it could otherwise take for its own.  At most
    ``depth`` replies are ever in flight per handle, read in doorbell
    order.  Every later response must match an undisturbed thread K=1
    server bit for bit *for its own sequence number*.
    """
    staged_rows: list[np.ndarray] = []
    scenario = (
        _cancel_between_doorbell_and_reply
        if backend == "process"
        else _cancel_inside_a_thread_replica
    )
    got, stats = asyncio.run(scenario(monkeypatch, staged_rows))
    want, _ = _serve_sequentially("thread", workers=1)
    assert sorted(got) == [s for s in range(len(X)) if s != CANCELLED_SEQ]
    # the cancelled exchange finished first, then every later batch, in order
    assert [row.tobytes() for row in staged_rows] == [x.tobytes() for x in X]
    for seq, res in got.items():
        np.testing.assert_array_equal(res.probs, want[seq].probs)
        assert res.entropy == want[seq].entropy
        assert res.mutual_information == want[seq].mutual_information
    assert stats.transport_ring_batches == (len(X) if backend == "process" else 0)
    assert stats.worker_crashes == 0


@pytest.mark.timeout(120)
def test_a_cancel_at_the_lone_replicas_yield_stages_nothing(monkeypatch):
    """A lone thread replica's batch can only be cancelled before it computes.

    It computes on the loop after one yield, so the yield is the last
    point a cancellation can land.  There it has staged nothing, holds no
    lock, and hands its place straight back; the next sequence number is
    served bit for bit as by an undisturbed thread K=1 server.
    """

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="thread"),
        )
        async with server:
            pool = server._pool
            (replica,) = pool._replicas
            stage = replica.stager.stage
            staged = []

            def counted_stage(payloads):
                staged.append(payloads[0])
                return stage(payloads)

            monkeypatch.setattr(replica.stager, "stage", counted_stage)
            results = {}
            for seq in range(CANCELLED_SEQ):
                (results[seq],) = await pool.run(seq, [X[seq]])
            batch = asyncio.ensure_future(pool.run(CANCELLED_SEQ, [X[CANCELLED_SEQ]]))
            for _ in range(10):
                await asyncio.sleep(0)
                if replica.in_flight:
                    break
            # checked out, and the step that did so ended at the yield
            assert replica.in_flight == 1 and not batch.done()
            batch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await batch
            assert len(staged) == CANCELLED_SEQ and not replica._lock.locked()
            assert replica.in_flight == 0 and pool._checkout.qsize() == 1
            for seq in range(CANCELLED_SEQ + 1, len(X)):
                (results[seq],) = await pool.run(seq, [X[seq]])
            assert len(staged) == len(X) - 1
            return results

    got = asyncio.run(main())
    want, _ = _serve_sequentially("thread", workers=1)
    assert sorted(got) == [s for s in range(len(X)) if s != CANCELLED_SEQ]
    for seq, res in got.items():
        np.testing.assert_array_equal(res.probs, want[seq].probs)
        assert res.entropy == want[seq].entropy
        assert res.mutual_information == want[seq].mutual_information


# --------------------------------------------------------------------------- #
# the exchange lives on the event loop
# --------------------------------------------------------------------------- #
class _CountingExecutor(ThreadPoolExecutor):
    submissions = 0

    def submit(self, *args, **kwargs):
        self.submissions += 1
        return super().submit(*args, **kwargs)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_lone_thread_replica_computes_on_the_loop(workers):
    """One live thread replica submits nothing to the executor; two submit
    one call per batch, so their GEMMs can overlap on separate cores."""

    async def main():
        executor = _CountingExecutor(max_workers=2)
        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES, workers=workers, worker_backend="thread"
            ),
            executor=executor,
        )
        try:
            async with server:
                started = executor.submissions
                pool = server._pool
                await asyncio.gather(*(pool.run(seq, [x]) for seq, x in enumerate(X)))
                return executor.submissions - started
        finally:
            executor.shutdown(wait=True)

    assert asyncio.run(main()) == (0 if workers == 1 else len(X))


@pytest.mark.timeout(120)
def test_a_lone_replica_whose_lock_is_held_waits_off_the_loop():
    """A held lock (a cancelled batch's thread still inside) is waited out
    on the executor: the loop keeps turning, and the batch runs once the
    lock is free."""

    async def main():
        executor = _CountingExecutor(max_workers=2)
        server = ServingEngine(
            _model(),
            ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="thread"),
            executor=executor,
        )
        try:
            async with server:
                pool = server._pool
                (replica,) = pool._replicas
                started = executor.submissions
                replica._lock.acquire()
                try:
                    batch = asyncio.ensure_future(pool.run(0, [X[0]]))
                    for _ in range(10):
                        await asyncio.sleep(0)
                    assert not batch.done()
                    assert executor.submissions - started == 1
                finally:
                    replica._lock.release()
                (got,) = await asyncio.wait_for(batch, HOLD_S)
                return got
        finally:
            executor.shutdown(wait=True)

    got = asyncio.run(main())
    want, _ = _serve_sequentially("thread", workers=1)
    np.testing.assert_array_equal(got.probs, want[0].probs)


@pytest.mark.timeout(120)
def test_a_lone_replicas_callers_answer_before_its_next_batch(monkeypatch):
    """The loop turn before an on-loop batch belongs to the last one's callers.

    With eight requests queued and one row per batch, every batch after
    the first is assembled the moment its predecessor resolves its caller
    (the batcher's hand-off rule).  The lone replica then yields once
    before it computes, so that caller has run — in a server, written its
    response — before the next batch takes the loop.
    """
    events: list[tuple] = []

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=1,
                worker_backend="thread",
                batcher=BatcherConfig(max_batch_size=1),
            ),
        )

        async def caller(i):
            await server.submit(X[i])
            events.append(("answered", i))

        async with server:
            (replica,) = server._pool._replicas
            execute = replica.execute

            def logged_execute(seq, token, payloads, fault):
                events.append(("execute", seq))
                return execute(seq, token, payloads, fault)

            monkeypatch.setattr(replica, "execute", logged_execute)
            await asyncio.gather(*(caller(i) for i in range(len(X))))

    asyncio.run(main())
    # FIFO, one row per batch: batch k serves request k
    order = [("execute", k) for k in range(len(X))]
    assert [e for e in events if e[0] == "execute"] == order
    for k in range(1, len(X)):
        assert events.index(("answered", k - 1)) < events.index(("execute", k)), events


@pytest.mark.timeout(120)
@pytest.mark.parametrize("workers", [1, 2])
def test_ring_batches_never_touch_the_executor(monkeypatch, workers):
    """Between ``start`` and ``stop`` a ring batch needs no thread at all.

    Not with two of them in flight per worker either, nor with a sibling
    to choose between.
    """

    async def main():
        executor = _CountingExecutor(max_workers=2)
        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=workers,
                worker_backend="process",
            ),
            executor=executor,
        )
        try:
            async with server:
                started = executor.submissions
                assert started > 0  # spawning the workers did use it
                pool = server._pool
                in_flight = {handle: [] for handle in pool._replicas}

                def counting(handle):
                    finish = handle._finish

                    def counting_finish(*args, **kwargs):
                        in_flight[handle].append(handle.replies_in_flight)
                        return finish(*args, **kwargs)

                    return counting_finish

                for handle in pool._replicas:
                    monkeypatch.setattr(handle, "_finish", counting(handle))
                # all at once: the workers' places are what paces them
                await asyncio.gather(*(pool.run(seq, [x]) for seq, x in enumerate(X)))
                for handle, seen in in_flight.items():
                    assert handle.depth == max(seen)
                return executor.submissions - started, server.stats()
        finally:
            executor.shutdown(wait=True)

    submissions, stats = asyncio.run(main())
    assert (submissions, stats.transport_ring_batches) == (0, len(X))


@pytest.mark.timeout(120)
def test_no_reader_outlives_its_exchange(monkeypatch):
    """Crash-retry, cancellation and ``stop()`` all leave the loop clean.

    A reader left behind on a pipe or sentinel fd is this design's classic
    leak: the number is reused by the next spawn, and the stale
    registration either fires for the wrong worker or makes the next
    ``add_reader`` fail.  ``loop.remove_reader`` returning ``False`` for
    every fd a handle ever watched is the loop's own word that none stayed.
    One pair of readers serves both replies in flight, so each scene runs
    with two batches on one handle.
    """
    watched: set[int] = set()
    watch = _RingHandle._watch

    def recording_watch(self, loop):
        watch(self, loop)
        watched.update(self._watched[1])

    monkeypatch.setattr(_RingHandle, "_watch", recording_watch)
    # batch 0 dies holding its slot with batch 2 staged behind it, and both
    # are retried on the sibling; batch 6's worker answers and dies at once
    # — reply and sentinel fire together
    plan = FaultPlan([(0, "mid_compute"), (6, "post_response")])

    async def main():
        loop = asyncio.get_running_loop()

        def stale() -> list[int]:
            return [fd for fd in sorted(watched) if loop.remove_reader(fd)]

        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=2,
                worker_backend="process",
                fault_plan=plan,
            ),
        )
        async with server:
            pool = server._pool
            victim, survivor = pool._replicas
            # checkout offers each worker's first place, then the second
            # ones: batches 0 and 2 share the first worker, 1 has the other
            await _run_with_doorbells_out(pool, victim, [[0], [1], [2]])
            assert pool.worker_crashes == 1 and len(watched) == 4
            assert (victim.ring_batches, survivor.ring_batches) == (2, 3)
            _assert_idle(victim)
            assert stale() == []

            with _frozen(survivor):
                batches = [
                    asyncio.ensure_future(pool.run(seq, [X[seq]])) for seq in (3, 4)
                ]
                await _until_doorbell([survivor], replies=2)
                for batch in batches:
                    batch.cancel()
                outcomes = await asyncio.gather(*batches, return_exceptions=True)
                assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)
                assert survivor.replies_in_flight == 2
            await pool.run(5, [X[5]])  # waits out a reply in flight first
            await pool.run(6, [X[6]])
            _assert_idle(survivor)
            assert plan.pending == () and stale() == []
        assert stale() == []  # ... and stop() reaped a dead worker
        return pool

    pool = asyncio.run(main())
    assert pool.ring_batches == 9


# --------------------------------------------------------------------------- #
# two exchanges per handle: deaths, the stop frame
# --------------------------------------------------------------------------- #
def _run_directly(backend: str, batches: list[list[int]], **kwargs) -> list[list]:
    """``pool.run(seq, rows)`` for each batch in turn on a fresh K=1 server."""

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES, workers=1, worker_backend=backend, **kwargs
            ),
        )
        async with server:
            return [
                await server._pool.run(seq, [X[i] for i in rows])
                for seq, rows in enumerate(batches)
            ]

    return asyncio.run(main())


def _assert_same_bits(got: list, want: list) -> None:
    assert len(got) == len(want)
    for res, ref in zip(got, want):
        np.testing.assert_array_equal(res.probs, ref.probs)
        assert res.entropy == ref.entropy
        assert res.mutual_information == ref.mutual_information


ROWS = [[0, 1], [2], [3, 4, 5]]  # the rows of X in batches 0, 1 and 2


@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "seq, point, lost",
    [
        (0, "mid_compute", 2),  # the batch computing: both die with the worker
        (2, "pre_doorbell", 2),  # killed staging behind it: both die
        (2, "mid_compute", 1),  # the batch behind: the first was answered
        (0, "post_response", 1),  # answered, then dead under the one behind
        (2, "post_response", 0),  # both answered: a silent death
    ],
)
def test_a_death_ends_every_exchange_in_flight_exactly_once(seq, point, lost):
    """A worker that dies holding two batches fails both, each once.

    The death sweep ends the exchanges whose doorbell is out; a batch still
    between staging and doorbell ends itself.  Either way every lost batch
    is retried on the sibling and comes back bit-identical to thread K=1
    *for its own seq*, the death is counted once, and the dead handle's
    slots, lock and readers are all released.
    """
    plan = FaultPlan([(seq, point)])

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=2,
                worker_backend="process",
                fault_plan=plan,
            ),
        )
        async with server:
            pool = server._pool
            victim, sibling = pool._replicas
            # first places first: batch 0 computes on the first worker,
            # batch 1 on its sibling, batch 2 is staged behind batch 0
            doorbells = 1 if point == "pre_doorbell" else 2
            got = await _run_with_doorbells_out(pool, victim, ROWS, doorbells)
            assert plan.pending == ()
            assert pool.worker_crashes == (1 if lost else 0)
            assert (victim.ring_batches, sibling.ring_batches) == (doorbells, 1 + lost)
            _assert_idle(victim)
            _assert_idle(sibling)
            victim.process.join(10.0)
            assert not victim.is_alive()
            fds = [victim.process.sentinel]
            if not victim.conn.closed:  # a silent death has not been reaped
                fds.append(victim.conn.fileno())
            loop = asyncio.get_running_loop()
            assert not any(loop.remove_reader(fd) for fd in fds)
            return got, server.stats()

    got, stats = asyncio.run(main())
    want = _run_directly("thread", ROWS)
    for batch, ref in zip(got, want):
        _assert_same_bits(batch, ref)


@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "point, doorbells",
    [
        ("pre_doorbell", 4),  # killed staging: the doorbell never went out
        ("mid_compute", 5),  # the doorbell went out, EOF came back
        ("post_response", 4),  # answered, then dead: reaped before batch 2
    ],
)
def test_a_death_between_batches_is_retried_bit_identically(point, doorbells):
    """Every ``FaultPlan`` point with one batch in flight at a time.

    The lost batch is retried on the sibling and comes back bit-identical
    to thread K=1; the death is counted once, and the corpse is reaped: its
    lock and pipe are released and its ring segment is unlinked.  Every
    batch rings exactly one live worker, plus the doorbell a batch lost
    mid-compute had already rung.
    """
    plan = FaultPlan([(1, point)])
    batches = [[0, 1], [2], [3, 4, 5], [6]]

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(
                num_samples=NUM_SAMPLES,
                workers=2,
                worker_backend="process",
                fault_plan=plan,
            ),
        )
        async with server:
            pool = server._pool
            _, victim = pool._replicas  # batch 1 goes to the second worker
            segment = victim.ring.manifest.segment_name
            got = []
            for seq, rows in enumerate(batches):
                got.append(await pool.run(seq, [X[i] for i in rows]))
                if seq == 1:  # dead at every point; reaped before batch 2
                    victim.process.join(10.0)
                    assert plan.pending == () and not victim.is_alive()
                    for _ in range(1000):
                        if not victim.alive:
                            break
                        await asyncio.sleep(0.001)
            assert pool.worker_crashes == 1 and not victim.alive
            assert victim.conn.closed and not victim._lock.locked()
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=segment)
            return got, server.stats()

    got, stats = asyncio.run(main())
    for batch, ref in zip(got, _run_directly("thread", batches)):
        _assert_same_bits(batch, ref)
    assert stats.transport_ring_batches == doorbells


@pytest.mark.timeout(120)
def test_the_stop_frame_waits_out_both_replies_in_flight():
    """``shutdown()``'s stop frame cannot interleave with a doorbell.

    Two batches are cancelled right after their doorbells and the server is
    stopped at once: the stop frame is sent only when both replies have
    been read (and thrown away), and the worker exits on it, not on a kill.
    """

    async def main():
        server = ServingEngine(
            _model(),
            ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="process"),
        )
        async with server:
            pool = server._pool
            (handle,) = pool._replicas
            handle.conn = spy = _PipeSpy(handle)
            with _frozen(handle):
                batches = [
                    asyncio.ensure_future(pool.run(seq, [X[seq]])) for seq in (0, 1)
                ]
                await _until_doorbell([handle], replies=2)
                for batch in batches:
                    batch.cancel()
                await asyncio.gather(*batches, return_exceptions=True)
                assert handle.replies_in_flight == 2 and handle._lock.locked()
        return handle, spy.sent

    handle, sent = asyncio.run(main())
    # the stop frame owns the (idle) handle through its lock, not a place
    assert sent == [("ring", 0, 1), ("ring", 1, 2), ("stop", None, 0)]
    assert handle.process.exitcode == 0 and handle.ring_batches == 2
    assert (handle.cache_misses, handle.replies_in_flight) == (2, 0)


# --------------------------------------------------------------------------- #
# crash handling and teardown
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_worker_crash_mid_slot_retries_and_unlinks_its_ring():
    model = _model()

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, workers=2, worker_backend="process")
        ) as server:
            await server.submit(X[0])
            victim = _next_victim(server)
            victim_segment = victim.ring.manifest.segment_name
            victim.process.kill()
            victim.process.join(10.0)
            results = await server.submit_many(X)
            # the reaped worker's ring segment is gone with it
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=victim_segment)
            return results, server.stats()

    results, stats = asyncio.run(main())
    assert len(results) == len(X)
    assert stats.worker_crashes >= 1
    for res in results:
        assert res.probs.shape == (5,)


@pytest.mark.timeout(120)
def test_stop_releases_every_ring_segment():
    model = _model()

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, workers=2, worker_backend="process")
        ) as server:
            await server.submit(X[0])
            return [h.ring.manifest.segment_name for h in server._pool._replicas]

    segments = asyncio.run(main())
    assert len(segments) == 2
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_worker_transport_validated():
    for transport in ("pipe", "telepathy"):
        with pytest.raises(ValueError, match="worker_transport must be 'ring'"):
            ServingEngine(_model(), ServingConfig(worker_transport=transport))
