"""DynamicBatcher unit tests: assembly, backpressure and cancellation.

These tests drive the batcher with trivial payloads and controllable fake
dispatch functions (no model involved) so that every edge case is
deterministic: rejection and awaiting at the ``max_queue_size`` bound (which
holds at every instant), max-latency flushes of partial batches,
single-request batches, cancellation while parked for room, while pending
and while a batch is in flight, and the overload episode log.
"""

from __future__ import annotations

import asyncio
import logging
import math
import random
import statistics
import time
from collections import deque

import pytest

from repro.serving import DeadlineExceeded, DynamicBatcher, ServerOverloaded


async def _echo_dispatch(payloads):
    return [p * 10 for p in payloads]


def test_batches_respect_max_batch_size():
    async def main():
        async with DynamicBatcher(
            _echo_dispatch, max_batch_size=4, max_batch_latency=0.05
        ) as batcher:
            results = await asyncio.gather(*(batcher.submit(i) for i in range(10)))
        assert results == [i * 10 for i in range(10)]
        stats = batcher.stats
        assert stats.completed == 10
        assert stats.batches >= 3  # 10 requests can never fit in 2 batches of 4
        assert stats.batched_requests == 10
        assert stats.mean_batch_size <= 4

    asyncio.run(main())


def test_single_request_batches():
    async def main():
        async with DynamicBatcher(
            _echo_dispatch, max_batch_size=1, max_batch_latency=0.05
        ) as batcher:
            results = await asyncio.gather(*(batcher.submit(i) for i in range(5)))
        assert results == [0, 10, 20, 30, 40]
        assert batcher.stats.batches == 5
        assert batcher.stats.mean_batch_size == 1.0

    asyncio.run(main())


def test_max_latency_flushes_partial_batch():
    async def main():
        async with DynamicBatcher(
            _echo_dispatch, max_batch_size=64, max_batch_latency=0.02
        ) as batcher:
            # 3 requests can never fill a 64-wide batch: only the deadline
            # can flush them
            results = await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(i) for i in range(3))), timeout=5.0
            )
        assert results == [0, 10, 20]
        assert batcher.stats.batches == 1
        assert batcher.stats.batched_requests == 3

    asyncio.run(main())


def test_queue_full_rejection():
    release = None

    async def blocked_dispatch(payloads):
        await release.wait()
        return payloads

    async def main():
        nonlocal release
        release = asyncio.Event()
        async with DynamicBatcher(
            blocked_dispatch,
            max_batch_size=1,
            max_batch_latency=0.005,
            max_queue_size=2,
            reject_on_full=True,
        ) as batcher:
            first = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.sleep(0.02)  # collector takes "a" into the blocked batch
            q1 = asyncio.ensure_future(batcher.submit("b"))
            q2 = asyncio.ensure_future(batcher.submit("c"))
            await asyncio.sleep(0.02)  # exactly "b" and "c" are pending
            with pytest.raises(ServerOverloaded):
                await batcher.submit("d")
            assert batcher.stats.rejected == 1
            release.set()
            assert await asyncio.gather(first, q1, q2) == ["a", "b", "c"]
        assert batcher.stats.completed == 3

    asyncio.run(main())


def test_queue_full_awaits_instead_of_rejecting():
    async def main():
        async with DynamicBatcher(
            _echo_dispatch,
            max_batch_size=2,
            max_batch_latency=0.005,
            max_queue_size=1,
            reject_on_full=False,
        ) as batcher:
            results = await asyncio.gather(*(batcher.submit(i) for i in range(12)))
        assert results == [i * 10 for i in range(12)]
        assert batcher.stats.rejected == 0
        assert batcher.stats.completed == 12
        assert batcher.stats.queue_peak <= 1

    asyncio.run(main())


def test_cancellation_while_queued_skips_request():
    release = None

    async def blocked_dispatch(payloads):
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
            first = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.sleep(0.02)  # "a" is in flight (blocked)
            doomed = asyncio.ensure_future(batcher.submit("b"))
            survivor = asyncio.ensure_future(batcher.submit("c"))
            await asyncio.sleep(0.02)
            doomed.cancel()
            release.set()
            assert await first == "a"
            assert await survivor == "c"
            with pytest.raises(asyncio.CancelledError):
                await doomed
        stats = batcher.stats
        assert stats.cancelled == 1
        assert stats.completed == 2
        # the cancelled request was skipped at assembly, not dispatched
        assert stats.batched_requests == 2

    asyncio.run(main())


def test_cancellation_mid_flight_is_harmless():
    release = None

    async def blocked_dispatch(payloads):
        await release.wait()
        return payloads

    async def main():
        nonlocal release
        release = asyncio.Event()
        async with DynamicBatcher(
            blocked_dispatch, max_batch_size=2, max_batch_latency=0.005
        ) as batcher:
            doomed = asyncio.ensure_future(batcher.submit("a"))
            survivor = asyncio.ensure_future(batcher.submit("b"))
            await asyncio.sleep(0.02)  # both are inside the in-flight batch
            doomed.cancel()
            release.set()
            assert await survivor == "b"
            with pytest.raises(asyncio.CancelledError):
                await doomed
            # the batcher keeps serving after a mid-flight cancellation
            assert await batcher.submit("c") == "c"
        assert batcher.stats.cancelled == 1

    asyncio.run(main())


def test_dispatch_error_propagates_to_batch_and_batcher_survives():
    fail = True

    async def flaky_dispatch(payloads):
        if fail:
            raise ValueError("model exploded")
        return payloads

    async def main():
        nonlocal fail
        async with DynamicBatcher(
            flaky_dispatch, max_batch_size=4, max_batch_latency=0.005
        ) as batcher:
            with pytest.raises(ValueError, match="model exploded"):
                await batcher.submit("a")
            fail = False
            assert await batcher.submit("b") == "b"

    asyncio.run(main())


def test_stop_drains_queued_requests():
    async def main():
        batcher = DynamicBatcher(
            _echo_dispatch, max_batch_size=4, max_batch_latency=0.01
        )
        await batcher.start()
        pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(6)]
        await asyncio.sleep(0)  # let every submit be accepted before stopping
        await batcher.stop(drain=True)
        assert await asyncio.gather(*pending) == [i * 10 for i in range(6)]
        with pytest.raises(RuntimeError, match="not running"):
            await batcher.submit(99)

    asyncio.run(main())


def test_stop_without_drain_cancels_blocked_submitters():
    """stop(drain=False) must fail every pending request, including
    submitters parked for room by backpressure."""
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
            max_batch_latency=0.005,
            max_queue_size=2,
            reject_on_full=False,
        )
        await batcher.start()
        # 1 in flight + 2 pending + 7 parked awaiting room
        pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(10)]
        await asyncio.sleep(0.02)
        await batcher.stop(drain=False)
        outcomes = await asyncio.gather(*pending, return_exceptions=True)
        assert all(isinstance(o, asyncio.CancelledError) for o in outcomes), (
            f"every request must fail on non-draining stop, got {outcomes}"
        )

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))


def test_stop_without_drain_before_the_collectors_first_step_strands_nobody():
    """A collector cancelled before it ever ran cannot clean up after itself."""

    async def main():
        batcher = DynamicBatcher(_echo_dispatch)
        # on the ready queue ahead of the collector task that start() creates
        stopper = asyncio.ensure_future(batcher.stop(drain=False))
        await batcher.start()
        with pytest.raises(asyncio.CancelledError):
            await batcher.submit(1)  # accepted before either of them has run
        await stopper
        assert not batcher.running and batcher.queue_depth == 0

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))


def test_submit_before_start_raises():
    async def main():
        batcher = DynamicBatcher(_echo_dispatch)
        with pytest.raises(RuntimeError, match="not running"):
            await batcher.submit(1)

    asyncio.run(main())


def test_invalid_configuration_rejected():
    for kwargs in (
        {"max_batch_size": 0},
        {"max_batch_latency": 0.0},
        {"max_queue_size": 0},
    ):
        with pytest.raises(ValueError):
            DynamicBatcher(_echo_dispatch, **kwargs)


def test_nan_deadline_rejected_before_it_reaches_the_edf_heap():
    async def main():
        async with DynamicBatcher(_echo_dispatch, max_batch_latency=0.001) as batcher:
            with pytest.raises(ValueError, match="deadline"):
                await batcher.submit(1, deadline=math.nan)
            assert batcher.stats.submitted == 0
            # inf stays legal: it is "no deadline"
            assert await batcher.submit(2, deadline=math.inf) == 20

    asyncio.run(main())


# --------------------------------------------------------------------------- #
# sub-millisecond flush (the collector's yield-polled wait)
# --------------------------------------------------------------------------- #
def test_sub_millisecond_flush_is_honoured():
    """A lone request waits for its 0.3 ms flush, not for the selector's 1 ms.

    Event-loop timers are whole milliseconds rounded up, so a collector that
    hands the flush to the selector answers a lone request after >= 1 ms.
    The median keeps a noisy host from flaking the upper bound.
    """
    flush = 0.0003

    async def main():
        elapsed = []
        async with DynamicBatcher(
            _echo_dispatch, max_batch_size=8, max_batch_latency=flush
        ) as batcher:
            for i in range(50):
                start = time.perf_counter()
                assert await batcher.submit(i) == i * 10
                elapsed.append(time.perf_counter() - start)
        assert batcher.stats.batches == 50  # every request flushed alone
        return elapsed

    elapsed = asyncio.run(main())
    assert min(elapsed) >= flush, "a partial batch was flushed before its time"
    assert statistics.median(elapsed) < 1.0e-3, (
        f"median lone-request time {statistics.median(elapsed) * 1e3:.3f} ms: "
        "the sub-millisecond flush is being rounded up to the timer granularity"
    )


def test_request_conservation_under_sub_millisecond_flush():
    """64 staggered submitters, a random third cancelled while they wait.

    Arrivals and cancellations are spread over loop iterations (not timers),
    so they land while the collector is yield-polling a partial batch.  Every
    request must be accounted for exactly once and a draining stop must
    return with nothing left behind.
    """
    rng = random.Random(14)
    n = 64
    dispatched: list[int] = []
    returned: set[int] = set()

    async def yields(count):
        for _ in range(count):
            await asyncio.sleep(0)

    async def dispatch(payloads):
        dispatched.extend(payloads)
        await yields(4)  # in flight for a few iterations: cancellable there too
        returned.update(payloads)
        return [p * 10 for p in payloads]

    async def main():
        batcher = DynamicBatcher(
            dispatch, max_batch_size=8, max_batch_latency=0.0003, max_queue_size=16
        )
        await batcher.start()
        arrive_after = [rng.randrange(200) for _ in range(n)]

        async def submitter(i):
            await yields(arrive_after[i])
            return await batcher.submit(i)

        tasks = [asyncio.ensure_future(submitter(i)) for i in range(n)]

        async def canceller(i):
            await yields(arrive_after[i] + rng.randrange(1, 6))
            # a result already handed back is a completion, not a wait
            if i not in returned:
                tasks[i].cancel()

        doomed = rng.sample(range(n), n // 3)
        await asyncio.gather(*(canceller(i) for i in doomed))
        outcomes = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=10.0
        )
        await asyncio.wait_for(batcher.stop(drain=True), timeout=10.0)
        return batcher, outcomes, doomed

    batcher, outcomes, doomed = asyncio.run(main())
    stats = batcher.stats
    answered = [i for i, o in enumerate(outcomes) if o == i * 10]
    cancelled = [
        i for i, o in enumerate(outcomes) if isinstance(o, asyncio.CancelledError)
    ]
    assert sorted(answered + cancelled) == list(range(n)), outcomes
    assert set(cancelled) <= set(doomed) and cancelled
    assert len(dispatched) == len(set(dispatched)), "a request was dispatched twice"
    assert stats.completed == len(answered)
    assert stats.submitted == stats.completed + stats.cancelled
    assert stats.rejected == stats.shed == 0
    assert not batcher.running and batcher.queue_depth == 0
    assert not batcher._inflight
    # the staggered arrivals really went through the partial-batch wait
    assert stats.batches > n // 8


# --------------------------------------------------------------------------- #
# the work-conserving hand-off between two batches
# --------------------------------------------------------------------------- #
class _GatedDispatch:
    """Echo dispatch that logs its entries and holds named batches open."""

    def __init__(self, events: list, hold=()) -> None:
        self.events = events
        self.gates = {first: asyncio.Event() for first in hold}
        self.entered = {first: asyncio.Event() for first in hold}

    async def __call__(self, payloads):
        self.events.append(("dispatch", list(payloads)))
        gate = self.gates.get(payloads[0])
        if gate is not None:
            self.entered[payloads[0]].set()
            await gate.wait()
        return payloads


async def _caller(batcher, events, payload):
    result = await batcher.submit(payload)
    events.append(("resumed", result))
    return result


def test_backlog_is_dispatched_before_the_finished_batch_resumes_its_callers():
    """A next batch that is already full is launched at the hand-off.

    Requests that arrived behind the running batch are already in the
    pending set when it completes — ``dispatch`` is entered for them
    before any caller of the finished batch gets its loop turn, so the
    worker is fed first and the callers' bookkeeping overlaps its compute.
    """

    async def main():
        events: list[tuple] = []
        dispatch = _GatedDispatch(events, hold=["a0"])
        async with DynamicBatcher(
            dispatch, max_batch_size=2, max_batch_latency=5.0
        ) as batcher:
            first = [
                asyncio.ensure_future(_caller(batcher, events, p)) for p in ("a0", "a1")
            ]
            await asyncio.wait_for(dispatch.entered["a0"].wait(), 5.0)
            backlog = [
                asyncio.ensure_future(_caller(batcher, events, p)) for p in ("b0", "b1")
            ]
            await asyncio.sleep(0.01)  # both are pending behind batch a
            assert batcher.queue_depth == 2
            dispatch.gates["a0"].set()
            await asyncio.wait_for(asyncio.gather(*first, *backlog), 5.0)
        return events

    events = asyncio.run(main())
    assert events[:2] == [("dispatch", ["a0", "a1"]), ("dispatch", ["b0", "b1"])], (
        "the finished batch's callers ran before the backlog was dispatched"
    )
    assert sorted(events[2:]) == [("resumed", p) for p in ("a0", "a1", "b0", "b1")]


def test_backlog_past_its_flush_time_is_dispatched_partial_at_the_hand_off():
    """A lone pending request whose wait is already over does not wait again."""

    async def main():
        events: list[tuple] = []
        dispatch = _GatedDispatch(events, hold=["a0"])
        async with DynamicBatcher(
            dispatch, max_batch_size=2, max_batch_latency=0.005
        ) as batcher:
            first = [
                asyncio.ensure_future(_caller(batcher, events, p)) for p in ("a0", "a1")
            ]
            await asyncio.wait_for(dispatch.entered["a0"].wait(), 5.0)
            lone = asyncio.ensure_future(_caller(batcher, events, "b0"))
            await asyncio.sleep(0.02)  # well past b0's flush time
            dispatch.gates["a0"].set()
            await asyncio.wait_for(asyncio.gather(*first, lone), 5.0)
        return events

    events = asyncio.run(main())
    assert events[:2] == [("dispatch", ["a0", "a1"]), ("dispatch", ["b0"])]


def test_lone_request_after_an_idle_hand_off_still_waits_out_the_batch_latency():
    """With nothing pending at completion the collector waits exactly as before."""
    flush = 0.03

    async def main():
        events: list[tuple] = []
        async with DynamicBatcher(
            _GatedDispatch(events), max_batch_size=4, max_batch_latency=flush
        ) as batcher:
            await asyncio.gather(*(batcher.submit(p) for p in "abcd"))  # a full batch
            await asyncio.sleep(0.01)  # the collector is parked, nothing pending
            start = time.perf_counter()
            assert await asyncio.wait_for(batcher.submit("lone"), 5.0) == "lone"
            waited = time.perf_counter() - start
        assert [e[1] for e in events] == [list("abcd"), ["lone"]]
        return waited

    assert asyncio.run(main()) >= flush, "a partial batch was flushed before its time"


def test_closed_loop_of_exactly_one_batch_of_callers_keeps_forming_full_batches():
    """No backlog ever exists at the hand-off: every caller is in the batch.

    The collector must then *wait* for the resubmissions (they all land in
    one loop turn) instead of flushing the first one alone.
    """
    size, rounds = 8, 25

    async def dispatch(payloads):
        await asyncio.sleep(0)
        return payloads

    async def main():
        async with DynamicBatcher(
            dispatch, max_batch_size=size, max_batch_latency=5.0
        ) as batcher:

            async def caller(i):
                for r in range(rounds):
                    assert await batcher.submit((i, r)) == (i, r)

            await asyncio.wait_for(
                asyncio.gather(*(caller(i) for i in range(size))), 10.0
            )
        return batcher.stats

    stats = asyncio.run(main())
    assert stats.batches == rounds and stats.mean_batch_size == size


def test_request_fetched_by_the_carried_over_getter_is_not_starved_by_a_backlog():
    """The oldest request behind a running batch goes out first.

    (The id dates from the queue → heap design, where a ``queue.get()`` left
    in flight by a timer flush could hold the oldest request while batch
    after batch was formed from the backlog behind it; with one pending
    set there is no such place, and the order it pinned must still hold.)
    """

    async def main():
        events: list[tuple] = []
        dispatch = _GatedDispatch(events, hold=["first"])
        async with DynamicBatcher(
            dispatch, max_batch_size=2, max_batch_latency=0.005
        ) as batcher:
            # flushed alone by the timer
            first = asyncio.ensure_future(batcher.submit("first"))
            await asyncio.wait_for(dispatch.entered["first"].wait(), 5.0)
            later = [asyncio.ensure_future(batcher.submit(i)) for i in range(5)]
            await asyncio.sleep(0.01)  # requests 0-4 are pending behind it
            dispatch.gates["first"].set()
            await asyncio.wait_for(asyncio.gather(first, *later), 5.0)
        return events

    events = asyncio.run(main())
    assert [e[1] for e in events] == [["first"], [0, 1], [2, 3], [4]]


def test_drain_sentinel_taken_at_the_hand_off_still_ends_the_collector():
    """stop(drain=True) while a batch runs, behind a backlog or alone.

    (No sentinel travels any more — ``stop`` raises a flag and wakes the
    collector — but the drain it pinned is the same.)
    """

    async def main(backlog: int):
        events: list[tuple] = []
        dispatch = _GatedDispatch(events, hold=["a0"])
        batcher = DynamicBatcher(dispatch, max_batch_size=2, max_batch_latency=5.0)
        await batcher.start()
        first = [asyncio.ensure_future(batcher.submit(p)) for p in ("a0", "a1")]
        await asyncio.wait_for(dispatch.entered["a0"].wait(), 5.0)
        queued = [asyncio.ensure_future(batcher.submit(i)) for i in range(backlog)]
        await asyncio.sleep(0.01)
        stopping = asyncio.ensure_future(batcher.stop(drain=True))
        await asyncio.sleep(0.01)  # the drain waits behind the backlog
        assert not stopping.done()
        dispatch.gates["a0"].set()
        await asyncio.wait_for(stopping, 5.0)
        assert await asyncio.gather(*first, *queued) == ["a0", "a1", *range(backlog)]
        assert not batcher.running and batcher.queue_depth == 0
        assert batcher.stats.submitted == batcher.stats.completed == 2 + backlog
        return [e[1] for e in events]

    assert asyncio.run(main(backlog=3)) == [["a0", "a1"], [0, 1], [2]]
    assert asyncio.run(main(backlog=0)) == [["a0", "a1"]]


# --------------------------------------------------------------------------- #
# one pending set: the bound, the waiting line, the overload episode log
# --------------------------------------------------------------------------- #
class _HeldDispatch:
    """Echo dispatch that holds every batch until the test releases it."""

    def __init__(self) -> None:
        self.held: deque[tuple[list, asyncio.Future]] = deque()
        self.order: list = []

    async def __call__(self, payloads):
        gate = asyncio.get_running_loop().create_future()
        self.held.append((list(payloads), gate))
        self.order.extend(payloads)
        return await gate

    def release(self) -> None:
        payloads, gate = self.held.popleft()
        gate.set_result(payloads)


async def _settle():
    """Let every ready callback chain run out (ten turns cover the longest:
    arrival -> asyncio.wait -> collector -> dispatch -> futures -> callers)."""
    for _ in range(10):
        await asyncio.sleep(0)


@pytest.mark.parametrize("reject", [True, False], ids=["reject", "await"])
def test_the_bound_is_on_everything_accepted_and_not_yet_dispatched(reject):
    """``queue_depth <= max_queue_size`` at every instant, under both policies.

    One batch is held inside the dispatch, 39 submissions arrive behind it
    (4 fit), then batches are released one at a time — with a second wave
    of newcomers after the first release, which is where a batcher that
    moves its bounded queue into an unbounded heap lets the backlog grow.
    """
    bound = 4

    async def main():
        dispatch = _HeldDispatch()
        batcher = DynamicBatcher(
            dispatch,
            max_batch_size=1,
            max_batch_latency=5.0,
            max_queue_size=bound,
            reject_on_full=reject,
        )
        await batcher.start()

        async def submit(i):
            task = asyncio.ensure_future(batcher.submit(i))
            await _settle()
            assert batcher.queue_depth <= bound, f"after submission {i}"
            return task

        tasks = [await submit(0)]
        assert len(dispatch.held) == 1 and batcher.queue_depth == 0
        for i in range(1, 40):
            tasks.append(await submit(i))
        assert batcher.queue_depth == bound
        assert batcher.stats.submitted == 1 + bound
        refused = [t for t in tasks if t.done()]
        if reject:
            assert len(refused) == batcher.stats.rejected == 35
            assert all(isinstance(t.exception(), ServerOverloaded) for t in refused)
        else:
            assert not refused  # 35 submitters are parked for room

        released = 0
        while dispatch.held:
            dispatch.release()
            released += 1
            await _settle()
            assert batcher.queue_depth <= bound, f"after released batch {released}"
            if released == 1:  # a place was freed: newcomers must not pile in
                for i in range(40, 44):
                    tasks.append(await submit(i))
            if not reject:  # one parked submitter admitted per released batch
                assert batcher.stats.submitted == min(44, 1 + bound + released)
        await asyncio.wait_for(batcher.stop(drain=True), 5.0)
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        return batcher, dispatch, outcomes

    batcher, dispatch, outcomes = asyncio.run(main())
    assert batcher.stats.queue_peak <= bound
    overloaded = [i for i, o in enumerate(outcomes) if isinstance(o, ServerOverloaded)]
    answered = [i for i, o in enumerate(outcomes) if o == i]
    assert sorted(answered + overloaded) == list(range(44)), outcomes
    if reject:
        # the place freed by the first release went to exactly one newcomer
        assert answered == [0, 1, 2, 3, 4, 40]
        assert batcher.stats.rejected == 35 + 3
    else:
        assert not overloaded
        assert dispatch.order == list(range(44)), "admitted out of arrival order"


def test_a_parked_submitter_that_is_cancelled_gives_up_its_turn_not_a_place():
    async def main():
        dispatch = _HeldDispatch()
        batcher = DynamicBatcher(
            dispatch, max_batch_size=1, max_batch_latency=5.0, max_queue_size=2
        )
        await batcher.start()
        tasks = [asyncio.ensure_future(batcher.submit(i)) for i in range(6)]
        await _settle()  # 0 in flight, 1-2 pending, 3-5 parked for room
        assert batcher.stats.submitted == 3
        tasks[3].cancel()
        await _settle()
        assert tasks[3].cancelled()
        assert batcher.queue_depth == 2 and batcher.stats.submitted == 3
        dispatch.release()
        await _settle()  # the freed place goes to 4: the line moved on
        assert batcher.queue_depth == 2 and batcher.stats.submitted == 4
        while dispatch.held:
            dispatch.release()
            await _settle()
            assert batcher.queue_depth <= 2
        await asyncio.wait_for(batcher.stop(drain=True), 5.0)
        assert [t.result() for t in tasks if not t.cancelled()] == [0, 1, 2, 4, 5]
        return batcher.stats, dispatch.order

    stats, order = asyncio.run(main())
    assert order == [0, 1, 2, 4, 5]
    # it was never accepted, so no counter knows it
    assert stats.submitted == stats.completed == 5
    assert stats.cancelled == 0 and stats.queue_peak == 2


def test_a_freed_place_cannot_be_overtaken():
    """A ``submit`` in the same loop turn as a pop queues behind the line."""

    async def main():
        dispatch = _HeldDispatch()
        batcher = DynamicBatcher(
            dispatch, max_batch_size=1, max_batch_latency=5.0, max_queue_size=1
        )
        await batcher.start()
        tasks = [asyncio.ensure_future(batcher.submit(i)) for i in range(3)]
        await _settle()  # 0 in flight, 1 pending, 2 parked
        # the collector's wake-up goes onto the ready queue and this submit
        # right behind it: it runs in the turn in which 1 was popped
        dispatch.release()
        tasks.append(asyncio.ensure_future(batcher.submit("newcomer")))
        await _settle()
        assert batcher.queue_depth == 1
        while dispatch.held:
            dispatch.release()
            await _settle()
        await asyncio.wait_for(batcher.stop(drain=True), 5.0)
        assert await asyncio.gather(*tasks) == [0, 1, 2, "newcomer"]
        return dispatch.order

    assert asyncio.run(main()) == [0, 1, 2, "newcomer"]


def test_drain_answers_submitters_still_parked_for_room():
    async def main():
        dispatch = _HeldDispatch()
        batcher = DynamicBatcher(
            dispatch, max_batch_size=2, max_batch_latency=5.0, max_queue_size=1
        )
        await batcher.start()
        tasks = [asyncio.ensure_future(batcher.submit(i)) for i in range(6)]
        await _settle()  # 0-1 in flight, 2 pending, 3-5 parked
        stopping = asyncio.ensure_future(batcher.stop(drain=True))
        await _settle()
        with pytest.raises(RuntimeError, match="not running"):
            await batcher.submit(99)
        while not stopping.done():
            dispatch.release()
            await _settle()
        assert await asyncio.gather(*tasks) == list(range(6))
        assert not batcher.running and batcher.queue_depth == 0
        return dispatch.order

    assert asyncio.run(main()) == list(range(6))


def test_overload_episodes_leave_one_log_record_each(caplog):
    """First reject, first shed, and the totals once the pending set empties.

    ``repro.serving.batcher`` logs overload *episodes*; a request on the
    happy path — or the 2nd..nth casualty of an episode — is not an event.
    """
    caplog.set_level(logging.INFO, logger="repro.serving.batcher")

    def records() -> list[str]:
        return [
            f"{r.levelname} {r.getMessage()}"
            for r in caplog.records
            if r.name == "repro.serving.batcher"
        ]

    async def main():
        dispatch = _HeldDispatch()
        async with DynamicBatcher(
            dispatch,
            max_batch_size=1,
            max_batch_latency=0.001,
            max_queue_size=1,
            reject_on_full=True,
            admission_timeout=0.02,
        ) as batcher:

            async def drain():
                while dispatch.held:
                    dispatch.release()
                    await _settle()

            # happy path: nothing
            ok = asyncio.ensure_future(batcher.submit("ok"))
            await _settle()
            await drain()
            assert await ok == "ok" and records() == []

            # episode one: two rejects, no shed
            first = []
            for payload in "ab":
                first.append(asyncio.ensure_future(batcher.submit(payload)))
                await _settle()  # a in flight, then b pending
            for payload in "cd":
                with pytest.raises(ServerOverloaded):
                    await batcher.submit(payload)
            await drain()
            assert await asyncio.gather(*first) == ["a", "b"]
            one = records()

            # episode two: one reject, then the pending request expires
            held = asyncio.ensure_future(batcher.submit("e"))
            await _settle()
            stale = asyncio.ensure_future(batcher.submit("f"))
            await _settle()
            with pytest.raises(ServerOverloaded):
                await batcher.submit("g")
            await asyncio.sleep(0.05)  # past f's admission timeout
            await drain()
            assert await held == "e"
            with pytest.raises(DeadlineExceeded):
                await stale
            await _settle()
            return one, records()[len(one) :]

    one, two = asyncio.run(main())
    assert len(one) == 2 and len(two) == 3, (one, two)
    assert one[0].startswith("WARNING overloaded: first request rejected")
    assert "(max_queue_size=1, queue_depth=1; so far 3 submitted, 1 rejected" in one[0]
    assert one[1].startswith("INFO overload episode over: 2 rejected, 0 shed")
    assert two[0].startswith("WARNING overloaded: first request rejected")
    assert two[1].startswith("WARNING overloaded: first request shed")
    assert "3 rejected, 1 shed)" in two[1]
    assert two[2].startswith("INFO overload episode over: 1 rejected, 1 shed")


# --------------------------------------------------------------------------- #
# shed-on-missed-deadline (opt-in admission_timeout policy)
# --------------------------------------------------------------------------- #
def test_expired_deadline_is_shed_with_typed_error():
    """A request that missed its deadline behind a slow batch is rejected."""
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
            max_batch_latency=0.001,
            max_queue_size=8,
            admission_timeout=10.0,
        ) as batcher:
            first = asyncio.ensure_future(batcher.submit("first"))
            await asyncio.sleep(0.02)  # "first" is in flight (blocked)
            doomed = asyncio.ensure_future(batcher.submit("doomed", deadline=0.01))
            keeper = asyncio.ensure_future(batcher.submit("keeper", deadline=30.0))
            await asyncio.sleep(0.05)  # doomed's deadline passes while queued
            release.set()
            await first
            with pytest.raises(DeadlineExceeded, match="shed after waiting"):
                await doomed
            await keeper
        assert batcher.stats.shed == 1
        assert batcher.stats.completed == 2
        assert ["doomed"] not in dispatched  # never reached dispatch

    asyncio.run(main())


def test_admission_timeout_bounds_queue_wait_of_deadline_less_requests():
    """Without explicit deadlines, requests shed after admission_timeout."""
    release = None

    async def blocked_dispatch(payloads):
        await release.wait()
        return payloads

    async def main():
        nonlocal release
        release = asyncio.Event()
        async with DynamicBatcher(
            blocked_dispatch,
            max_batch_size=1,
            max_batch_latency=0.001,
            max_queue_size=8,
            admission_timeout=0.02,
        ) as batcher:
            first = asyncio.ensure_future(batcher.submit("first"))
            await asyncio.sleep(0.01)
            stale = asyncio.ensure_future(batcher.submit("stale"))
            await asyncio.sleep(0.05)  # exceeds the admission timeout
            release.set()
            await first
            with pytest.raises(DeadlineExceeded):
                await stale
        assert batcher.stats.shed == 1

    asyncio.run(main())


def test_no_admission_timeout_keeps_missed_deadlines_served():
    """Historical default: deadlines order the backlog but never shed."""
    release = None

    async def blocked_dispatch(payloads):
        await release.wait()
        return payloads

    async def main():
        nonlocal release
        release = asyncio.Event()
        async with DynamicBatcher(
            blocked_dispatch,
            max_batch_size=1,
            max_batch_latency=0.001,
            max_queue_size=8,
        ) as batcher:
            first = asyncio.ensure_future(batcher.submit("first"))
            await asyncio.sleep(0.01)
            late = asyncio.ensure_future(batcher.submit("late", deadline=0.005))
            await asyncio.sleep(0.05)  # deadline long gone
            release.set()
            assert await first == "first"
            assert await late == "late"  # still served, just EDF-ordered
        assert batcher.stats.shed == 0
        assert batcher.stats.completed == 2

    asyncio.run(main())


def test_fresh_requests_are_not_shed():
    """Requests within budget flow through a shedding batcher untouched."""
    async def main():
        async with DynamicBatcher(
            _echo_dispatch,
            max_batch_size=4,
            max_batch_latency=0.005,
            admission_timeout=5.0,
        ) as batcher:
            results = await asyncio.gather(
                *(batcher.submit(i, deadline=10.0) for i in range(8))
            )
        assert results == [i * 10 for i in range(8)]
        assert batcher.stats.shed == 0

    asyncio.run(main())


def test_admission_timeout_validated():
    with pytest.raises(ValueError, match="admission_timeout"):
        DynamicBatcher(_echo_dispatch, admission_timeout=0.0)
    with pytest.raises(ValueError, match="admission_timeout"):
        DynamicBatcher(_echo_dispatch, admission_timeout=-1.0)
