"""Microbatching helpers for high-volume inference workloads.

:func:`iter_microbatches` normalises the two input forms the synchronous
streaming API accepts — a pre-assembled batch array, or an iterable of
single examples — into a stream of ``(batch_size, …)`` arrays, so the
engines can run each microbatch through the folded hot path and keep peak
memory bounded by ``batch_size · num_samples`` activations instead of the
full workload.

:func:`aiter_microbatches` is the async-aware counterpart behind the
engines' ``apredict_stream`` hooks — a standalone helper for one ordered
stream; the serving layer (:mod:`repro.serving`) batches independent
requests with its own ``DynamicBatcher`` and does not use it.  It
additionally accepts *asynchronous* example streams and supports a
``max_latency`` deadline, flushing a partial microbatch when the stream goes
quiet instead of stalling the first request of a trickle workload until a
full batch arrives.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterable, AsyncIterator, Iterable, Iterator

import numpy as np

__all__ = ["iter_microbatches", "aiter_microbatches"]


def iter_microbatches(
    inputs: np.ndarray | Iterable[np.ndarray],
    batch_size: int,
) -> Iterator[np.ndarray]:
    """Yield ``(<=batch_size, …)`` batches from an array or example stream.

    Parameters
    ----------
    inputs:
        Either a batch array of shape ``(N, …)`` (sliced into views, no
        copies) or an iterable of per-example arrays of shape ``(…)`` which
        are stacked into fresh batches as they arrive.
    batch_size:
        Maximum rows per yielded batch; the final batch may be smaller.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if isinstance(inputs, np.ndarray):
        for start in range(0, inputs.shape[0], batch_size):
            yield inputs[start : start + batch_size]
        return

    buffer: list[np.ndarray] = []
    for example in inputs:
        buffer.append(np.asarray(example))
        if len(buffer) == batch_size:
            yield np.stack(buffer)
            buffer = []
    if buffer:
        yield np.stack(buffer)


async def aiter_microbatches(
    inputs: np.ndarray | Iterable[np.ndarray] | AsyncIterable[np.ndarray],
    batch_size: int,
    max_latency: float | None = None,
) -> AsyncIterator[np.ndarray]:
    """Async microbatching over synchronous *or* asynchronous example streams.

    Synchronous inputs (a batch array or a plain iterable) behave exactly
    like :func:`iter_microbatches`.  An :class:`~typing.AsyncIterable` of
    per-example arrays is assembled into batches as examples arrive; with
    ``max_latency`` set, a partially-filled batch is flushed once that many
    seconds have passed since its first example, bounding per-request
    latency under trickle traffic.

    Parameters
    ----------
    inputs:
        Batch array ``(N, …)``, iterable of per-example arrays, or async
        iterable of per-example arrays.
    batch_size:
        Maximum rows per yielded batch; the final batch may be smaller.
    max_latency:
        Optional deadline (seconds) before a partial batch is flushed.
        Ignored for synchronous inputs, which never have to wait.

    Notes
    -----
    The source is drained by a background pump task into a bounded queue
    (the deadline wait happens on ``queue.get``, which is cancellation-safe,
    so no example is ever lost to a timeout — cancelling ``__anext__`` on an
    arbitrary async generator would not give that guarantee).  The queue is
    bounded at ``batch_size`` items, so a slow consumer back-pressures the
    producer instead of buffering the whole stream.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if max_latency is not None and max_latency <= 0:
        raise ValueError("max_latency must be positive when given")

    if not isinstance(inputs, AsyncIterable):
        for batch in iter_microbatches(inputs, batch_size):
            yield batch
        return

    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue(maxsize=batch_size)
    end_of_stream = object()

    async def pump() -> None:
        try:
            async for example in inputs:
                await queue.put(np.asarray(example))
        finally:
            await queue.put(end_of_stream)

    pump_task = asyncio.ensure_future(pump())
    # A deadline flush leaves one queue.get in flight; it is carried to the
    # next round instead of being cancelled.  (asyncio.wait_for(queue.get(),
    # timeout) can lose a dequeued item when the timeout and the item race
    # on Python <= 3.11; a persistent getter awaited via asyncio.wait
    # cannot.)
    pending_get: asyncio.Future | None = None
    try:
        buffer: list[np.ndarray] = []
        deadline = 0.0
        exhausted = False
        while not exhausted:
            if pending_get is None:
                pending_get = asyncio.ensure_future(queue.get())
            if not buffer or max_latency is None:
                item = await pending_get
                pending_get = None
            else:
                remaining = deadline - loop.time()
                if remaining > 0:
                    done, _ = await asyncio.wait({pending_get}, timeout=remaining)
                else:
                    done = set()
                if pending_get in done:
                    item = pending_get.result()
                    pending_get = None
                else:
                    # deadline fired: flush, keeping the get in flight
                    yield np.stack(buffer)
                    buffer = []
                    continue
            if item is end_of_stream:
                exhausted = True
                continue
            if not buffer and max_latency is not None:
                deadline = loop.time() + max_latency
            buffer.append(item)
            if len(buffer) == batch_size:
                yield np.stack(buffer)
                buffer = []
        if buffer:
            yield np.stack(buffer)
    finally:
        if pending_get is not None:
            pending_get.cancel()
        pump_task.cancel()
        try:
            await pump_task  # surfaces source-stream exceptions to the caller
        except asyncio.CancelledError:
            pass
