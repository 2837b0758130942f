"""Request conservation in ``DynamicBatcher`` as a state machine.

One batcher over a dispatch that holds every batch until a rule releases
it, on a private event loop with a *virtual clock*: rules step the loop one
non-blocking iteration at a time and advance time explicitly, so every
interleaving hypothesis draws — submit, cancel, release (ok / raising /
wrong result count), time passing, stop with and without drain — replays
exactly, timers and the sub-millisecond yield-polled flush included.

After every rule: the pending set is within its bound, every ``submit``
ever issued is outstanding or resolved in exactly one way that matches what
the dispatch saw of it, and the batcher's counters add up.  After either
stop nothing is left anywhere.
"""

from __future__ import annotations

import asyncio
from collections import deque

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serving import DeadlineExceeded, DynamicBatcher, ServerOverloaded

#: long enough for any wake-up chain (arrival -> asyncio.wait -> collector
#: -> dispatch, or gate -> batch -> futures -> callers) to run out
_SETTLE_ITERATIONS = 10


class Boom(Exception):
    """What a released-as-raising batch fails with."""


class BatcherMachine(RuleBasedStateMachine):
    #: one machine per full-set policy, so each gets a whole example budget
    reject_on_full: bool

    def __init__(self) -> None:
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.now = 0.0
        self.loop.time = lambda: self.now  # timers fire when a rule says so
        self.held: deque[tuple[list[int], asyncio.Future]] = deque()
        self.dispatched: list[int] = []
        self.failed_in_dispatch: set[int] = set()
        self.tasks: list[asyncio.Task] = []
        #: the only callers allowed to end in CancelledError: the ones a
        #: rule cancelled, and whoever was outstanding at a stop(drain=False)
        self.may_be_cancelled: set[int] = set()
        self.stopped = False

    def teardown(self) -> None:
        if not self.stopped:
            self._stop(drain=False)
        self.loop.close()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, payloads):
        gate = self.loop.create_future()
        self.held.append((list(payloads), gate))
        self.dispatched.extend(payloads)
        return await gate

    def _settle(self) -> None:
        for _ in range(_SETTLE_ITERATIONS):
            self.loop.call_soon(self.loop.stop)
            self.loop.run_forever()  # exactly one iteration, select(0)

    def _release(self, how: str) -> None:
        payloads, gate = self.held.popleft()
        if gate.done():  # its batch was cancelled by stop(drain=False)
            return
        if how == "ok":
            gate.set_result([p * 10 for p in payloads])
        else:
            self.failed_in_dispatch.update(payloads)
            if how == "raise":
                gate.set_exception(Boom())
            else:
                gate.set_result([0] * (len(payloads) + 1))

    def _stop(self, drain: bool) -> None:
        if not drain:
            self.may_be_cancelled.update(
                i for i, task in enumerate(self.tasks) if not task.done()
            )
        stopping = self.loop.create_task(self.batcher.stop(drain=drain))
        for _ in range(10 * (len(self.tasks) + 1)):
            self._settle()
            if stopping.done():
                break
            # a drain is only as fast as the dispatch answers and time flows
            while self.held:
                self._release("ok")
            self.now += 0.01
        assert stopping.done(), "stop() did not return"
        stopping.result()
        self._settle()  # the callers it failed still have to hear of it
        self.stopped = True

    # ------------------------------------------------------------------ #
    # rules
    # ------------------------------------------------------------------ #
    @initialize(
        max_queue_size=st.integers(1, 4),
        max_batch_size=st.integers(1, 3),
        max_batch_latency=st.sampled_from([0.0003, 0.005]),
        max_concurrent_batches=st.integers(1, 2),
    )
    def boot(self, **config) -> None:
        self.batcher = DynamicBatcher(
            self._dispatch,
            reject_on_full=self.reject_on_full,
            admission_timeout=0.05,
            **config,
        )
        self.loop.run_until_complete(self.batcher.start())

    @precondition(lambda self: not self.stopped)
    @rule(deadlines=st.lists(st.sampled_from([None, 0.5, 0.0]), min_size=1, max_size=6))
    def submit(self, deadlines) -> None:
        # a burst lands in one loop turn; the tick behind it is what makes
        # deadline 0.0 an already-expired one by the time it is assembled
        for deadline in deadlines:
            payload = len(self.tasks)
            self.tasks.append(
                self.loop.create_task(self.batcher.submit(payload, deadline=deadline))
            )
        self._settle()
        self.now += 1e-6
        self._settle()

    @precondition(lambda self: self.stopped)
    @rule(restart=st.booleans())
    def submit_when_stopped(self, restart) -> None:
        try:
            self.loop.run_until_complete(self.batcher.submit(-1))
        except RuntimeError as exc:
            assert "not running" in str(exc)
        else:
            raise AssertionError("a stopped batcher accepted a request")
        if restart:  # a stopped batcher starts again and serves on
            self.loop.run_until_complete(self.batcher.start())
            self.stopped = False

    @precondition(lambda self: any(not t.done() for t in self.tasks))
    @rule(data=st.data())
    def cancel(self, data) -> None:
        outstanding = [i for i, task in enumerate(self.tasks) if not task.done()]
        doomed = data.draw(st.sampled_from(outstanding))
        self.may_be_cancelled.add(doomed)
        self.tasks[doomed].cancel()
        self._settle()

    @precondition(lambda self: self.held)
    @rule(how=st.sampled_from(["ok", "ok", "raise", "wrong_count"]))
    def release(self, how) -> None:
        self._release(how)
        self._settle()

    @rule(dt=st.sampled_from([0.0001, 0.001, 0.01, 0.1]))
    def advance(self, dt) -> None:
        self.now += dt
        self._settle()

    @precondition(lambda self: not self.stopped)
    @rule(drain=st.booleans())
    def stop(self, drain) -> None:
        self._stop(drain)
        batcher = self.batcher
        assert not batcher.running and len(batcher._heap) == 0
        assert not batcher._waiting and not batcher._inflight
        assert all(t.done() for t in self.tasks), "a caller was left waiting"

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def the_bound_holds(self) -> None:
        config = self.batcher.config
        assert len(self.batcher._heap) <= config.max_queue_size
        assert self.batcher.stats.queue_peak <= config.max_queue_size
        assert all(len(batch) <= config.max_batch_size for batch, _ in self.held)

    @invariant()
    def every_request_is_accounted_for_once(self) -> None:
        stats = self.batcher.stats
        assert len(self.dispatched) == len(set(self.dispatched)), "dispatched twice"
        counts = dict.fromkeys(
            ("outstanding", "result", "overloaded", "shed", "cancelled", "failed"), 0
        )
        for payload, task in enumerate(self.tasks):
            was_dispatched = payload in self.dispatched
            if not task.done():
                kind = "outstanding"
            elif task.cancelled():
                kind = "cancelled"
                assert payload in self.may_be_cancelled, "dropped by the batcher"
            elif task.exception() is None:
                kind = "result"
                assert task.result() == payload * 10 and was_dispatched
            elif isinstance(task.exception(), ServerOverloaded):
                kind = "overloaded"
                assert not was_dispatched and self.batcher.config.reject_on_full
            elif isinstance(task.exception(), DeadlineExceeded):
                kind = "shed"
                assert not was_dispatched
            else:
                kind = "failed"
                assert payload in self.failed_in_dispatch
                assert isinstance(task.exception(), (Boom, RuntimeError))
            counts[kind] += 1
        assert counts["result"] == stats.completed
        assert counts["overloaded"] == stats.rejected
        assert counts["shed"] == stats.shed
        # parked submitters are outstanding but not accepted; one cancelled
        # (or failed by stop) while parked was never accepted either
        parked = sum(not req.future.done() for req in self.batcher._waiting)
        pending = counts["outstanding"] - parked
        assert stats.submitted == (
            stats.completed + stats.shed + stats.cancelled + counts["failed"] + pending
        )
        assert stats.cancelled <= counts["cancelled"]
        assert stats.batched_requests == len(self.dispatched)


class _Rejecting(BatcherMachine):
    reject_on_full = True


class _Awaiting(BatcherMachine):
    reject_on_full = False


TestConservationRejecting = _Rejecting.TestCase
TestConservationAwaiting = _Awaiting.TestCase
TestConservationRejecting.settings = TestConservationAwaiting.settings = (
    settings.get_profile("serving-stateful")
)
