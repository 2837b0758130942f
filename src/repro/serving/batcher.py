"""Dynamic request batching over one bounded pending set.

:class:`DynamicBatcher` is the transport half of the serving layer: it
collects individually-submitted requests into microbatches so that the
folded inference hot path (:mod:`repro.inference`) amortises its per-pass
cost over many concurrent requests — the serving analogue of the paper's
spatial MC-engine mapping, where cost is amortised over samples instead.

Batch assembly follows the two standard knobs of request-driven serving
harnesses:

* ``max_batch_size`` — a batch is dispatched as soon as it is full;
* ``max_batch_latency`` — a *partial* batch is dispatched once this many
  seconds have passed since its first request, so a trickle of traffic is
  never stalled waiting for a batch that will not fill.

**Flush precision.**  Event-loop timers cannot express that second knob
below a millisecond: the stdlib selector takes whole milliseconds and
rounds up, so a 0.25 ms flush handed to it fires after ~1.15 ms.  The
collector therefore gives the selector only waits of 1 ms or more; a
remaining wait shorter than that is *yield-polled* — ``await
asyncio.sleep(0)`` until a request arrives or the flush time passes.  Each
yield is a full loop iteration (``select(0)``, ready callbacks), so socket
reads, submissions and cancellations are served as usual.  The price is
loop-thread CPU, bounded by under 1 ms of polling per *partial* batch; a
batch that fills never waits and pays nothing.

**One pending set.**  An accepted, not yet dispatched request sits in one
place, the batcher's EDF heap: ``submit`` pushes it there and the collector
assembles from there.  So ``max_queue_size`` bounds what it says — requests
accepted and not yet dispatched, ``len(heap) <= max_queue_size`` at
every instant, ``stats.queue_peak`` its high-water mark
(batches in flight are bounded separately, by ``workers x depth``).  With
the heap full, ``reject_on_full=True`` fails ``submit`` fast with
:class:`ServerOverloaded` so the caller can retry elsewhere; the default
parks it in a FIFO waiting line (cooperative backpressure, load is shed to
the callers' own queues).  Every pop of the heap moves the longest-parked
request into the freed place in the same synchronous step, so a newcomer
can neither take that place nor overtake the line.

**Hand-off.**  The step from one batch to the next is work-conserving by
construction: a request that arrived behind a running batch is in the heap
when that batch completes, so a next batch that is already full — or past
its flush time — is dispatched *before* the finished batch's callers get
their loop turns, and their bookkeeping overlaps the worker's compute.
With the heap empty the collector parks on one future that the next
accepted request (or ``stop``) resolves.

**Overload episodes** are all this module logs: one WARNING at the first
:class:`ServerOverloaded` and one at the first :class:`DeadlineExceeded`
since the pending set was last empty, one INFO with the episode's totals
when it next empties.

Three scheduling extensions sit on top of the pending set:

* **Earliest-deadline-first.** ``submit(payload, deadline=...)`` attaches a
  per-request latency budget; the heap is keyed by absolute deadline, so
  under backlog the tightest budgets are served first (the paper's latency
  story, applied to serving).  Requests without a deadline keep strict
  arrival order behind every deadlined request — with no deadlines at all,
  behaviour is plain FIFO.
* **Shed-on-missed-deadline** (opt-in via ``admission_timeout``).  EDF
  alone only *orders* the backlog: a request that already missed its
  deadline still occupies a batch slot computing an answer nobody can use.
  With ``admission_timeout=T``, a request is dropped at batch-assembly
  time — failing fast with :class:`DeadlineExceeded` — once it has waited
  past ``min(deadline, T)``; deadline-less requests shed after ``T``.
  Under sustained overload the server then spends its cycles on requests
  that can still meet their budgets, and shed callers learn at once.
* **Pipelined dispatch.** With ``max_concurrent_batches=K > 1``, up to
  ``K`` batches run in flight at once and the collector keeps *assembling*
  batch ``N+1`` while batch ``N`` computes — free throughput once the
  engines are reentrant (one engine replica per worker).  The default of
  1 is strictly serial: assembly starts once the previous batch completed.

The batcher is payload-agnostic: it moves opaque payloads to an async
``dispatch`` callable that maps a list of payloads to one result per
payload.  :class:`repro.serving.ServingEngine` supplies the dispatch that
runs a batch through a folded engine replica of its worker pool.
"""

from __future__ import annotations

import asyncio
import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

from .config import BatcherConfig

__all__ = [
    "DynamicBatcher",
    "BatcherStats",
    "ServerOverloaded",
    "DeadlineExceeded",
]

#: The stdlib selectors take their timeout in whole milliseconds, rounded
#: *up* (``epoll_wait``/``poll``): an event-loop timer shorter than this
#: still fires about a millisecond late (see *Flush precision* above).
_SELECTOR_TIMER_RESOLUTION = 1e-3

LOG = logging.getLogger(__name__)


class ServerOverloaded(RuntimeError):
    """Raised by ``submit`` when the pending set is full and rejection is on."""


class DeadlineExceeded(RuntimeError):
    """A request expired before dispatch under the shed policy.

    Raised to the submitting caller when ``admission_timeout`` is
    configured and the request's shed deadline (its explicit ``deadline``,
    capped by the admission timeout) passed while it waited for batch
    assembly.  The request never reached the dispatch callable.
    """


@dataclass
class BatcherStats:
    """Running counters of one :class:`DynamicBatcher`.

    Attributes
    ----------
    submitted:
        Requests accepted into the pending set.
    completed:
        Requests whose future received a result.
    rejected:
        Requests refused with :class:`ServerOverloaded` (never accepted).
    cancelled:
        Requests whose future was cancelled before a result was delivered.
    shed:
        Requests failed with :class:`DeadlineExceeded` because they
        expired before dispatch (only with ``admission_timeout`` set).
    batches:
        Batches dispatched (including partial and single-request batches).
    batched_requests:
        Total requests across all dispatched batches.
    queue_peak:
        High-water mark of requests accepted and not yet dispatched, never
        above ``max_queue_size`` (batches in flight: ``workers x depth``).
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    cancelled: int = 0
    shed: int = 0
    batches: int = 0
    batched_requests: int = 0
    queue_peak: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average dispatched batch size (0.0 before the first batch)."""
        return self.batched_requests / self.batches if self.batches else 0.0


@dataclass(slots=True, eq=False)
class _Request:
    payload: Any
    future: asyncio.Future
    #: event-loop time of submission; max_batch_latency counts from here, so
    #: time spent parked or pending behind a batch in flight is not re-waited
    enqueued_at: float
    #: absolute event-loop time the caller wants a response by (``inf``
    #: when no deadline was given) — the EDF heap key
    deadline_at: float
    #: absolute event-loop time after which the shed policy fails the
    #: request instead of batching it (``inf`` when shedding is off)
    shed_at: float
    #: acceptance counter, 0 while parked in the waiting line; ties equal
    #: deadlines in arrival order (nobody is accepted past the FIFO line)
    seq: int = 0


class DynamicBatcher:
    """Collect single-payload submissions into dispatched microbatches.

    Parameters
    ----------
    dispatch:
        Async callable mapping a list of payloads to a sequence with exactly
        one result per payload, in order.  Exceptions it raises go to every
        request of the failing batch (the batcher itself keeps running).
    max_batch_size, max_batch_latency, max_queue_size, reject_on_full, \
admission_timeout:
        The fields of the :class:`~repro.serving.config.BatcherConfig` this
        batcher is described by — documented and range-checked there, kept
        as ``self.config``.
    max_concurrent_batches:
        How many dispatched batches may be in flight at once (*Pipelined
        dispatch* in the module docstring).  ``K > 1`` requires a
        ``dispatch`` that is safe to run ``K``-way concurrently.

    Notes
    -----
    While the in-flight limit is reached, new requests accumulate in the
    pending set and form the next batch — so batch size adapts to load
    (single-request batches when idle, full batches under bursts) without
    any explicit tuning (see *Hand-off* in the module docstring).
    """

    def __init__(
        self,
        dispatch: Callable[[list[Any]], Awaitable[Sequence[Any]]],
        max_batch_size: int = 32,
        max_batch_latency: float = 0.002,
        max_queue_size: int = 128,
        reject_on_full: bool = False,
        admission_timeout: float | None = None,
        max_concurrent_batches: int = 1,
    ) -> None:
        self.config = BatcherConfig(
            max_batch_size=max_batch_size,
            max_batch_latency=max_batch_latency,
            max_queue_size=max_queue_size,
            reject_on_full=reject_on_full,
            admission_timeout=admission_timeout,
        )
        if max_concurrent_batches <= 0:
            raise ValueError("max_concurrent_batches must be positive")
        self._dispatch = dispatch
        self.max_concurrent_batches = int(max_concurrent_batches)
        self.stats = BatcherStats()
        #: the pending set: ``(deadline_at, seq, request)``, earliest first
        self._heap: list[tuple[float, int, _Request]] = []
        #: requests parked for room while the heap is full, in arrival order
        self._waiting: deque[_Request] = deque()
        #: what the collector parks on while the heap is empty
        self._arrival: asyncio.Future | None = None
        self._collector: asyncio.Task | None = None
        self._stopping = False
        self._inflight: set[asyncio.Task] = set()
        self._seq = 0
        #: counter values at the first reject / shed of the open overload
        #: episode, by ``BatcherStats`` field; empty between episodes
        self._episode: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._collector is not None and not self._collector.done()

    async def start(self) -> None:
        """Start the background collector (idempotent)."""
        if self.running:
            return
        self._stopping = False
        self._collector = asyncio.ensure_future(self._collect())

    async def stop(self, drain: bool = True) -> None:
        """Stop the collector; ``submit`` raises from the first step on.

        With ``drain=True`` (default) every accepted request, and every
        submitter still parked for room, is batched and answered first;
        with ``drain=False`` the collector is cancelled and all of them
        fail with :class:`asyncio.CancelledError`.
        """
        collector = self._collector
        if collector is None or self._stopping:
            return
        self._stopping = True
        if drain:
            self._wake_collector()
            await collector
        else:
            collector.cancel()
            try:
                await collector
            except asyncio.CancelledError:
                pass
            # fail the batches that were computing when we were cancelled
            for task in list(self._inflight):
                task.cancel()
            await asyncio.gather(*self._inflight, return_exceptions=True)
            self._abandon()  # a collector cancelled before its first step didn't
        self._collector = None

    async def __aenter__(self) -> "DynamicBatcher":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=True)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(self, payload: Any, deadline: float | None = None) -> Any:
        """Enqueue one payload and await its result.

        Parameters
        ----------
        payload:
            Opaque request payload, handed to ``dispatch`` as part of a batch.
        deadline:
            Optional latency budget in seconds from now.  Pending requests
            are scheduled earliest-deadline-first; ``None`` (default)
            schedules in arrival order behind every deadlined request.
            Without ``admission_timeout`` the deadline only orders work;
            with it, a request that misses it before dispatch is shed.

        Raises
        ------
        ValueError
            If ``deadline`` is negative or NaN (``inf`` is legal and means
            "no deadline").
        RuntimeError
            If the batcher is not running.
        ServerOverloaded
            If ``max_queue_size`` requests are pending and
            ``reject_on_full`` is set.
        DeadlineExceeded
            If ``admission_timeout`` is configured and the request waited
            past ``min(deadline, admission_timeout)`` before it could be
            batched (shed-on-missed-deadline policy).
        """
        # `not >=` rather than `<`: NaN compares false to everything, would
        # pass `< 0` and then sit in the EDF heap ordering against nothing
        if deadline is not None and not deadline >= 0:
            raise ValueError("deadline must be non-negative seconds from now")
        if self._stopping or not self.running:
            raise RuntimeError("batcher is not running (call start() first)")
        config = self.config
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline_at = math.inf if deadline is None else now + deadline
        timeout = config.admission_timeout
        shed_at = math.inf if timeout is None else min(deadline_at, now + timeout)
        req = _Request(payload, loop.create_future(), now, deadline_at, shed_at)
        # a live parked request implies a full heap (every pop refills from
        # the line), so room here means nobody is being overtaken
        if len(self._heap) < config.max_queue_size:
            self._accept(req)
            self._wake_collector()
        elif config.reject_on_full:
            self.stats.rejected += 1
            self._note_overload("rejected")
            raise ServerOverloaded(
                f"submission queue full ({config.max_queue_size} pending requests)"
            )
        else:
            self._waiting.append(req)  # cooperative backpressure: await room
        try:
            return await req.future
        except asyncio.CancelledError:
            if req.seq:  # a parked submitter gives up its turn, not a place
                self.stats.cancelled += 1
            raise

    def _accept(self, req: _Request) -> None:
        """Put ``req`` into the pending set (the caller checked for room)."""
        self._seq += 1
        req.seq = self._seq
        heapq.heappush(self._heap, (req.deadline_at, req.seq, req))
        stats = self.stats
        stats.submitted += 1
        stats.queue_peak = max(stats.queue_peak, len(self._heap))

    def _pop(self) -> _Request:
        """Take the earliest-deadline request; the longest-parked live
        submitter gets its place in the same step (no newcomer ever sees it)."""
        req = heapq.heappop(self._heap)[-1]
        waiting = self._waiting
        while waiting:
            parked = waiting.popleft()
            if not parked.future.done():  # its caller may have given up
                self._accept(parked)
                break
        return req

    def _wake_collector(self) -> None:
        if self._arrival is not None and not self._arrival.done():
            self._arrival.set_result(None)

    def _note_overload(self, counter: str) -> None:
        """``stats.<counter>`` just went up: the first of an episode is logged."""
        if counter not in self._episode:
            stats = self.stats
            self._episode[counter] = getattr(stats, counter) - 1
            LOG.warning(
                "overloaded: first request %s since the pending set was last "
                "empty (max_queue_size=%d, queue_depth=%d; so far %d submitted, "
                "%d rejected, %d shed)",
                counter,
                self.config.max_queue_size,
                len(self._heap),
                stats.submitted,
                stats.rejected,
                stats.shed,
            )

    def _close_episode(self) -> None:
        """The pending set is empty: sum up the overload episode, if any."""
        if self._episode:
            stats, episode = self.stats, self._episode
            LOG.info(
                "overload episode over: %d rejected, %d shed (max_queue_size=%d)",
                stats.rejected - episode.get("rejected", stats.rejected),
                stats.shed - episode.get("shed", stats.shed),
                self.config.max_queue_size,
            )
            self._episode = {}

    # ------------------------------------------------------------------ #
    # batch assembly / dispatch
    # ------------------------------------------------------------------ #
    def _admit(self, req: _Request, loop) -> bool:
        """Whether a heap-popped request may join the batch being assembled.

        Cancelled requests are skipped silently; expired ones — under the
        opt-in shed policy — fail fast with :class:`DeadlineExceeded`.
        """
        if req.future.done():
            return False
        now = loop.time()
        if req.shed_at < now:
            self.stats.shed += 1
            self._note_overload("shed")
            req.future.set_exception(
                DeadlineExceeded(
                    f"request shed after waiting {now - req.enqueued_at:.3f}s "
                    "(missed its deadline before dispatch)"
                )
            )
            return False
        return True

    async def _wait_for_arrival(self, loop, flush_at: float | None) -> None:
        """Park the collector on an empty pending set until a request is
        accepted, ``stop`` is called or ``flush_at`` passes (the caller looks)."""
        self._close_episode()
        remaining = None if flush_at is None else flush_at - loop.time()
        if remaining is None or remaining >= _SELECTOR_TIMER_RESOLUTION:
            self._arrival = loop.create_future()
            await asyncio.wait({self._arrival}, timeout=remaining)
        else:
            # no timeout for the selector to round up: each yield is one
            # loop iteration with select(0), which still serves sockets,
            # submitters and cancellation
            while not self._heap and not self._stopping and loop.time() < flush_at:
                await asyncio.sleep(0)

    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        heap, config = self._heap, self.config
        # the batch currently being assembled/launched; visible to `finally`
        # so a cancellation mid-launch cannot strand its requests
        batch: list[_Request] = []
        try:
            # a draining stop ends here once everything accepted — parked
            # submitters included, every pop admits one — has been dispatched
            while heap or not self._stopping:
                if not heap:
                    await self._wait_for_arrival(loop, None)
                    continue
                # assemble one batch, earliest deadline first
                seed = self._pop()
                batch = [seed] if self._admit(seed, loop) else []
                # the latency budget counts from submission, so time already
                # spent pending behind an in-flight batch is not re-waited
                flush_at = seed.enqueued_at + config.max_batch_latency
                while len(batch) < config.max_batch_size:
                    if heap:
                        req = self._pop()
                        if self._admit(req, loop):  # skip cancelled/expired
                            batch.append(req)
                    elif self._stopping or loop.time() >= flush_at:
                        break  # no further arrivals, or none in time
                    else:
                        await self._wait_for_arrival(loop, flush_at)
                if batch:
                    await self._launch_batch(batch)
                    batch = []
            await asyncio.gather(*self._inflight, return_exceptions=True)
        finally:
            # what was not dispatched (nothing, after a drain) dies with the
            # collector, including an assembled batch whose launch was cancelled
            self._abandon(batch)
            self._close_episode()

    def _abandon(self, batch: Sequence[_Request] = ()) -> None:
        """Cancel every request accepted or parked and not dispatched."""
        for req in (*batch, *(entry[-1] for entry in self._heap), *self._waiting):
            if not req.future.done():
                req.future.cancel()
        self._heap.clear()
        self._waiting.clear()

    async def _launch_batch(self, batch: list[_Request]) -> None:
        """Run a batch — inline when serial, as a bounded task when pipelined."""
        if self.max_concurrent_batches == 1:
            await self._run_batch(batch)
            return
        while len(self._inflight) >= self.max_concurrent_batches:
            await asyncio.wait(
                set(self._inflight), return_when=asyncio.FIRST_COMPLETED
            )
        task = asyncio.ensure_future(self._run_batch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, batch: list[_Request]) -> None:
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)
        try:
            results = await self._dispatch([req.payload for req in batch])
        except asyncio.CancelledError:
            for req in batch:
                if not req.future.done():
                    req.future.cancel()
            raise
        except Exception as exc:
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        if len(results) != len(batch):
            exc = RuntimeError(
                f"dispatch returned {len(results)} results for {len(batch)} requests"
            )
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        for req, result in zip(batch, results):
            if not req.future.done():  # request may have been cancelled mid-flight
                req.future.set_result(result)
                self.stats.completed += 1
