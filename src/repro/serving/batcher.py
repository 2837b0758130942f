"""Dynamic request batching with bounded-queue backpressure.

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

**Hand-off.**  The step from one batch to the next is work-conserving:
when a batch completes and requests are already queued, the collector
takes them there and then (``get_nowait``, no getter task, no yield), so a
next batch that is already full — or past its flush time — is dispatched
*before* the finished batch's callers get their loop turns, and their
bookkeeping overlaps the worker's compute instead of delaying it.  With
nothing queued the collector waits exactly as described above.

Backpressure comes from the bounded submission queue (``max_queue_size``):
with the default ``reject_on_full=False`` an overloaded server makes
``submit`` *await* until capacity frees up (cooperative backpressure, load
is shed to the callers' own queues); with ``reject_on_full=True`` it fails
fast with :class:`ServerOverloaded` so the caller can retry elsewhere.

Two scheduling extensions sit on top of the queue:

* **Earliest-deadline-first.** ``submit(payload, deadline=...)`` attaches a
  per-request latency budget; requests waiting for assembly are ordered in
  a heap keyed by their absolute deadline, so under backlog the tightest
  budgets are served first (the paper's latency story, applied to serving).
  Requests without a deadline keep strict arrival order behind every
  deadlined request — with no deadlines at all, behaviour is plain FIFO,
  identical to the historical batcher.
* **Shed-on-missed-deadline** (opt-in via ``admission_timeout``).  EDF
  alone only *orders* the backlog: a request that already missed its
  deadline still occupies a batch slot computing an answer nobody can use.
  With ``admission_timeout=T``, a request is dropped at batch-assembly
  time — failing fast with :class:`DeadlineExceeded` — once it has waited
  past ``min(deadline, T)``; deadline-less requests shed after ``T``.
  This closes the SLO loop: under sustained overload the server spends its
  cycles exclusively on requests that can still meet their budgets, and
  shed callers learn immediately instead of after a useless wait.
* **Pipelined dispatch.** With ``max_concurrent_batches=K > 1``, up to
  ``K`` batches run in flight at once and the collector keeps *assembling*
  batch ``N+1`` while batch ``N`` computes — free throughput once the
  engines are reentrant (one engine replica per worker).  The default of
  1 keeps the historical strictly-serial behaviour: one batch at a time,
  assembly starting only after the previous batch completed.

The batcher is payload-agnostic: it moves opaque payloads to an async
``dispatch`` callable that maps a list of payloads to one result per
payload.  :class:`repro.serving.ServingEngine` supplies the dispatch that
stacks payloads into a NumPy batch and runs a folded engine replica in a
worker executor.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

import numpy as np

__all__ = [
    "BatchStager",
    "DynamicBatcher",
    "BatcherStats",
    "ServerOverloaded",
    "DeadlineExceeded",
]

#: The stdlib selectors take their timeout in whole milliseconds, rounded
#: *up* (``epoll_wait``/``poll``): an event-loop timer shorter than this
#: still fires about a millisecond late (see *Flush precision* above).
_SELECTOR_TIMER_RESOLUTION = 1e-3


class ServerOverloaded(RuntimeError):
    """Raised by ``submit`` when the queue is full and rejection is enabled."""


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
        Requests accepted into the queue.
    completed:
        Requests whose future received a result.
    rejected:
        Requests refused with :class:`ServerOverloaded` (never enqueued).
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
        High-water mark of the submission queue.
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


class BatchStager:
    """Pre-pinned microbatch assembly buffer: stack without allocating.

    The historical hot path re-allocated a fresh ``np.stack`` per
    microbatch just to hand the workers one contiguous array.  A stager
    owns one ``(max_batch_size, *example_shape)`` float64 buffer and
    assembles each batch by writing request rows into its head — the
    only per-batch cost is the row copies that ``np.stack`` also paid.

    :meth:`stage` returns a view over the buffer head whose layout is
    exactly what ``np.stack`` would produce (C-contiguous, same
    shape/strides), which keeps staged and stacked batches bit-identical
    through BLAS.  Downstream activation caches are content-keyed, so a
    staged buffer is indistinguishable from a fresh stack to them: same
    bytes, same key — repeated inputs hit the cache even though the buffer
    object is reused.

    One stager per worker replica — the view is invalidated by the next
    ``stage`` call on the same stager, so a replica must be done with a
    batch (results assembled into fresh arrays) before its next checkout,
    which a thread replica's depth of one — one batch per checkout —
    guarantees.
    """

    def __init__(self, max_batch_size: int, example_shape: Sequence[int]) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.example_shape = tuple(int(d) for d in example_shape)
        self._buffer = np.empty(
            (int(max_batch_size),) + self.example_shape, dtype=np.float64
        )

    def stage(self, payloads: Sequence[np.ndarray]) -> np.ndarray:
        """Assemble ``payloads`` into the pinned buffer's head.

        The buffer was sized for the geometry the caller serves: a batch
        it cannot hold, or a payload of another shape or kind, raises.
        """
        n = len(payloads)
        shape = self.example_shape
        if not 0 < n <= self._buffer.shape[0] or not all(
            isinstance(p, np.ndarray) and p.shape == shape and p.dtype == np.float64
            for p in payloads
        ):
            raise ValueError(
                f"the stager holds 1..{self._buffer.shape[0]} float64 rows of "
                f"shape {shape}; got {n} payload(s)"
            )
        batch = self._buffer[:n]
        for i, payload in enumerate(payloads):
            batch[i] = payload
        return batch


class _Request:
    __slots__ = ("payload", "future", "enqueued_at", "deadline_at", "shed_at", "seq")

    def __init__(
        self,
        payload: Any,
        future: asyncio.Future,
        enqueued_at: float,
        deadline_at: float,
        shed_at: float,
        seq: int,
    ) -> None:
        self.payload = payload
        self.future = future
        #: event-loop clock time of submission; the max_batch_latency
        #: deadline counts from here, so time spent queued behind an
        #: in-flight batch is not waited again during assembly
        self.enqueued_at = enqueued_at
        #: absolute event-loop time the caller wants a response by
        #: (``inf`` when no deadline was given) — the EDF heap key
        self.deadline_at = deadline_at
        #: absolute event-loop time after which the shed policy fails the
        #: request instead of batching it (``inf`` when shedding is off)
        self.shed_at = shed_at
        #: submission counter; orders equal-deadline requests by arrival
        self.seq = seq

    @property
    def heap_key(self) -> tuple[float, int]:
        return (self.deadline_at, self.seq)


class DynamicBatcher:
    """Collect single-payload submissions into dispatched microbatches.

    Parameters
    ----------
    dispatch:
        Async callable mapping a list of payloads to a sequence with exactly
        one result per payload, in order.  Exceptions it raises are
        propagated to every request of the failing batch (the batcher itself
        keeps running).
    max_batch_size:
        Dispatch a batch as soon as it holds this many requests.
    max_batch_latency:
        Dispatch a partial batch this many seconds after its first request
        arrived.  Honoured below the event loop's 1 ms timer granularity:
        a remaining wait under 1 ms is yield-polled on the loop thread
        (at most that much CPU per partial batch) instead of being rounded
        up to a whole millisecond by the selector — see *Flush precision*
        in the module docstring.
    max_queue_size:
        Bound of the submission queue — the backpressure knob.
    reject_on_full:
        ``False`` (default): ``submit`` awaits for queue capacity.
        ``True``: ``submit`` raises :class:`ServerOverloaded` immediately.
    admission_timeout:
        ``None`` (default): deadlines only *order* the backlog — the
        historical behaviour.  A positive number of seconds opts into the
        shed policy: at batch-assembly time a request that has waited past
        ``min(its deadline, admission_timeout)`` fails with
        :class:`DeadlineExceeded` instead of occupying a batch slot.
    max_concurrent_batches:
        How many dispatched batches may be in flight at once.  ``1``
        (default) is the historical strictly-serial behaviour; ``K > 1``
        pipelines assembly with compute and requires a ``dispatch`` that is
        safe to run ``K``-way concurrently (e.g. one engine replica per
        worker, as :class:`repro.serving.ServingEngine` arranges).

    Notes
    -----
    While the in-flight limit is reached, new requests accumulate in the
    queue and form the next batch — so batch size adapts to load
    (single-request batches when idle, full batches under bursts) without
    any explicit tuning.  Whatever is queued when a batch completes is
    taken at once, before that batch's callers resume (see *Hand-off* in
    the module docstring).
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
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_batch_latency <= 0:
            raise ValueError("max_batch_latency must be positive")
        if max_queue_size <= 0:
            raise ValueError("max_queue_size must be positive")
        if max_concurrent_batches <= 0:
            raise ValueError("max_concurrent_batches must be positive")
        if admission_timeout is not None and admission_timeout <= 0:
            raise ValueError("admission_timeout must be positive seconds")
        self._dispatch = dispatch
        self.max_batch_size = int(max_batch_size)
        self.max_batch_latency = float(max_batch_latency)
        self.max_queue_size = int(max_queue_size)
        self.reject_on_full = bool(reject_on_full)
        self.admission_timeout = (
            float(admission_timeout) if admission_timeout is not None else None
        )
        self.max_concurrent_batches = int(max_concurrent_batches)
        self.stats = BatcherStats()
        self._queue: asyncio.Queue | None = None
        self._collector: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        self._seq = 0
        #: requests sitting in the collector's EDF heap (see queue_depth)
        self._heap_backlog = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._collector is not None and not self._collector.done()

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet dispatched (0 when stopped).

        A live backlog signal for the autoscaler: the submission queue
        plus the collector's EDF heap (where queued requests are moved
        eagerly, so ``qsize`` alone would read ~0 under heavy backlog).
        """
        queue = self._queue
        return (queue.qsize() if queue is not None else 0) + self._heap_backlog

    async def start(self) -> None:
        """Start the background collector (idempotent)."""
        if self.running:
            return
        self._queue = asyncio.Queue(maxsize=self.max_queue_size)
        # hand the queue over directly: a stop() racing the task's first step
        # nulls self._queue before the collector ever reads it
        self._collector = asyncio.ensure_future(self._collect(self._queue))

    async def stop(self, drain: bool = True) -> None:
        """Stop the collector.

        With ``drain=True`` (default) every already-queued request is batched
        and answered first; with ``drain=False`` the collector is cancelled
        and pending requests fail with :class:`asyncio.CancelledError`.
        """
        if self._queue is None or self._collector is None:
            return
        queue, collector = self._queue, self._collector
        self._queue = None  # reject new submissions immediately
        if drain:
            await queue.put(None)  # sentinel: drain, then exit
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
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)
            # sweep until stable: each get_nowait may wake a submitter that
            # was parked in `await queue.put(...)` (backpressure), and its
            # request lands in the queue one loop step later — a single
            # drain pass would strand those submitters forever
            while True:
                drained = False
                while not queue.empty():
                    drained = True
                    req = queue.get_nowait()
                    if req is not None and not req.future.done():
                        req.future.cancel()
                await asyncio.sleep(0)
                if not drained and queue.empty():
                    break
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
            Optional latency budget in seconds from now.  Requests waiting
            for batch assembly are scheduled earliest-deadline-first;
            ``None`` (default) schedules in arrival order behind every
            deadlined request.  Without ``admission_timeout`` the deadline
            only orders work; with it, a request that misses its deadline
            before dispatch is shed (see below).

        Raises
        ------
        ValueError
            If ``deadline`` is negative or NaN (``inf`` is legal and means
            "no deadline").
        RuntimeError
            If the batcher is not running.
        ServerOverloaded
            If the queue is full and ``reject_on_full`` is set.
        DeadlineExceeded
            If ``admission_timeout`` is configured and the request waited
            past ``min(deadline, admission_timeout)`` before it could be
            batched (shed-on-missed-deadline policy).
        """
        # `not >=` rather than `<`: NaN compares false to everything, would
        # pass `< 0` and then sit in the EDF heap ordering against nothing
        if deadline is not None and not deadline >= 0:
            raise ValueError("deadline must be non-negative seconds from now")
        queue = self._queue
        if queue is None or not self.running:
            raise RuntimeError("batcher is not running (call start() first)")
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline_at = math.inf if deadline is None else now + deadline
        if self.admission_timeout is None:
            shed_at = math.inf
        else:
            shed_at = min(deadline_at, now + self.admission_timeout)
        self._seq += 1
        req = _Request(
            payload, loop.create_future(), now, deadline_at, shed_at, self._seq
        )
        if self.reject_on_full:
            try:
                queue.put_nowait(req)
            except asyncio.QueueFull:
                self.stats.rejected += 1
                raise ServerOverloaded(
                    f"submission queue full ({self.max_queue_size} pending requests)"
                ) from None
        else:
            try:
                queue.put_nowait(req)  # fast path: capacity available
            except asyncio.QueueFull:
                await queue.put(req)  # cooperative backpressure: await capacity
        self.stats.submitted += 1
        self.stats.queue_peak = max(self.stats.queue_peak, queue.qsize())
        try:
            return await req.future
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            raise

    # ------------------------------------------------------------------ #
    # batch assembly / dispatch
    # ------------------------------------------------------------------ #
    def _admit(self, req: _Request, loop) -> bool:
        """Whether a heap-popped request may join the batch being assembled.

        Cancelled requests are skipped silently (historical behaviour);
        expired ones — under the opt-in shed policy — fail fast with
        :class:`DeadlineExceeded` and are counted in ``stats.shed``.
        """
        if req.future.done():
            return False
        now = loop.time()
        if req.shed_at < now:
            self.stats.shed += 1
            req.future.set_exception(
                DeadlineExceeded(
                    f"request shed after waiting {now - req.enqueued_at:.3f}s "
                    "(missed its deadline before dispatch)"
                )
            )
            return False
        return True

    async def _collect(self, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        # Requests move queue -> EDF heap -> batch.  The heap holds requests
        # that have been taken off the queue but not yet dispatched; with no
        # deadlines its (inf, seq) keys degrade to pure arrival order.
        heap: list[tuple[tuple[float, int], _Request]] = []
        # One queue.get may be left in flight when a deadline fires; it is
        # carried over to the next round instead of being cancelled.  (A
        # plain asyncio.wait_for(queue.get(), ...) can lose a dequeued item
        # when the timeout and the item race on Python <= 3.11; awaiting a
        # persistent getter task through asyncio.wait cannot.)
        pending_get: asyncio.Future | None = None

        def drain_queue_into_heap() -> bool:
            """Move already-queued requests into the heap; True if sentinel seen."""
            try:
                while True:
                    try:
                        item = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return False
                    if item is None:
                        return True
                    heapq.heappush(heap, (item.heap_key, item))
            finally:
                self._heap_backlog = len(heap)

        def take_backlog() -> bool:
            """Everything already handed over goes to the heap, without yielding.

            That is the queue plus whatever the carried-over getter fetched
            meanwhile (left there, a backlog that keeps the heap non-empty
            would starve it).  True if the sentinel was among it.
            """
            nonlocal pending_get
            fetched_sentinel = False
            if pending_get is not None and pending_get.done():
                item, pending_get = pending_get.result(), None
                if item is None:
                    fetched_sentinel = True
                else:
                    heapq.heappush(heap, (item.heap_key, item))
            return drain_queue_into_heap() or fetched_sentinel

        # the batch currently being assembled/launched; visible to `finally`
        # so a cancellation mid-launch cannot strand its requests
        batch: list[_Request] = []
        try:
            draining = False
            while not draining:
                # work-conserving hand-off: requests that queued up behind
                # the batch that just finished are taken here and now — a
                # getter task would yield first, and the finished batch's
                # callers would all run before the next batch is launched
                draining = take_backlog()
                if not heap:
                    if draining:
                        break  # sentinel with nothing pending: done
                    if pending_get is None:
                        pending_get = asyncio.ensure_future(queue.get())
                    await pending_get
                    continue  # take_backlog() collects what the getter fetched

                # assemble one batch, earliest deadline first
                seed = heapq.heappop(heap)[1]
                batch = [seed] if self._admit(seed, loop) else []
                # the latency budget counts from submission, so time already
                # spent queued behind an in-flight batch is not re-waited
                flush_at = seed.enqueued_at + self.max_batch_latency
                while len(batch) < self.max_batch_size:
                    if heap:
                        req = heapq.heappop(heap)[1]
                        if self._admit(req, loop):  # skip cancelled/expired
                            batch.append(req)
                        continue
                    if draining:
                        break  # sentinel seen: no further arrivals, flush now
                    remaining = flush_at - loop.time()
                    if remaining <= 0:
                        break
                    if pending_get is None:
                        pending_get = asyncio.ensure_future(queue.get())
                    if remaining >= _SELECTOR_TIMER_RESOLUTION:
                        await asyncio.wait({pending_get}, timeout=remaining)
                    else:
                        # no timeout for the selector to round up: each
                        # yield is one loop iteration with select(0), which
                        # still serves sockets, submitters and cancellation
                        while not pending_get.done() and loop.time() < flush_at:
                            await asyncio.sleep(0)
                    if not pending_get.done():
                        break  # deadline fired; the get stays in flight
                    item = pending_get.result()
                    pending_get = None
                    if item is None:
                        draining = True  # dispatch this last batch, then exit
                        continue
                    heapq.heappush(heap, (item.heap_key, item))
                    draining = drain_queue_into_heap()
                if batch:
                    self._heap_backlog = len(heap)
                    await self._launch_batch(batch)
                    batch = []

            # sentinel seen: flush whatever is still parked in the heap
            while heap:
                batch = []
                while heap and len(batch) < self.max_batch_size:
                    req = heapq.heappop(heap)[1]
                    if self._admit(req, loop):
                        batch.append(req)
                if batch:
                    await self._launch_batch(batch)
                    batch = []
            if self._inflight:
                await asyncio.gather(*list(self._inflight), return_exceptions=True)
        finally:
            if pending_get is not None:
                if pending_get.done() and not pending_get.cancelled():
                    # the get completed just as the collector was cancelled:
                    # don't strand the request it retrieved
                    req = pending_get.result()
                    if req is not None and not req.future.done():
                        req.future.cancel()
                else:
                    pending_get.cancel()
            # requests already moved off the queue die with the collector,
            # including an assembled batch whose launch was cancelled
            for req in batch:
                if not req.future.done():
                    req.future.cancel()
            for _, req in heap:
                if not req.future.done():
                    req.future.cancel()
            self._heap_backlog = 0

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
