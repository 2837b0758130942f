"""Thread backend: how an in-process replica is made, how a batch reaches it.

A replica is an engine plus the pinned
:class:`~repro.serving.batcher.BatchStager` buffer checked out with it.
The first replica of a generation is the caller's engine — so its
activation cache stays shared with batch callers and
``ServingEngine.engine`` is an object that really serves — the rest come
from ``engine.replicate()``: same ``Parameter`` arrays zero-copy, private
context and cache each.  A batch takes one path inside the replica: the
stager packs the request rows into the ``(max_batch_size, *input_shape)``
buffer (the layout a fresh stack would have, no per-batch allocation), then
:func:`~repro.serving.workers.base.compute_batch_array` and
:func:`~repro.serving.workers.base.assemble_results` run back to back.

Where that path runs depends on the live roster, decided per batch.  With
two or more replicas it runs on an executor thread: NumPy's GEMMs release
the GIL, so batches genuinely overlap on multi-core hosts (the Python glue
between the GEMMs does not, which is what the process backend,
:mod:`repro.serving.workers.procpool`, exists to lift).  A lone replica
holds the only batch in flight, so nothing could overlap with it: after
one loop turn — the previous batch's callers answer, the supervisor and
health checks get theirs — it computes on the event loop itself, and
saves the executor hop's thread wake-up, self-pipe wake-up and cold CPU
per batch.

Threads cannot die and a generation shares nothing beyond the parameters,
so everything else — checkout, scaling, swaps, counters — is
:mod:`repro.serving.workers.roster` unchanged.
"""

from __future__ import annotations

import asyncio
import time

from ...uncertainty.metrics import UncertaintyResult
from ..batcher import BatchStager
from .base import assemble_results, compute_batch_array
from .roster import Replica, WorkerPool

__all__ = ["ThreadWorkerPool"]


class _ThreadReplica(Replica):
    """One engine and the staging buffer that travels with it."""

    #: one engine context and one staging buffer: one batch at a time
    depth = 1

    def __init__(self, pool: "ThreadWorkerPool", engine) -> None:
        super().__init__()
        self.pool = pool
        self.engine = engine
        self.stager = BatchStager(pool.max_batch_size, pool.input_shape)
        # the caller's engine may have served before (batch callers, an
        # earlier start): only traffic from here on is this replica's
        self._cache_base = engine.cache_stats()
        self._replied_ns = time.perf_counter_ns()

    @property
    def cache_hits(self) -> int:
        return self.engine.cache_stats()[0] - self._cache_base[0]

    @property
    def cache_misses(self) -> int:
        return self.engine.cache_stats()[1] - self._cache_base[1]

    async def serve(self, off_loop, seq, token, payloads, fault):
        """:meth:`execute` on the loop for a lone replica, else on the executor."""
        if self.pool.current_workers == 1:
            # the previous batch's callers were resolved before this batch
            # was assembled: let them answer before the loop is taken
            await asyncio.sleep(0)
            # never block the loop: a held lock means a cancelled batch's
            # executor thread is still inside the replica
            if self._lock.acquire(blocking=False):
                try:
                    return self.execute(seq, token, payloads, fault)
                finally:
                    self._lock.release()
        return await off_loop(self._execute_locked, seq, token, payloads, fault)

    def execute(self, seq, token, payloads, fault) -> list[UncertaintyResult]:
        started = time.perf_counter_ns()
        out = compute_batch_array(
            self.engine,
            seq,
            self.stager.stage(payloads),
            self.pool.num_samples,
            self.pool.early_exit_threshold,
        )
        results = assemble_results(out)
        now = time.perf_counter_ns()
        self.compute_ns += now - started
        self.cycle_ns += now - self._replied_ns
        self._replied_ns = now
        return results


class ThreadWorkerPool(WorkerPool):
    """K reentrant engine replicas on the serving engine's thread pool."""

    def _make_replicas(self, count: int, timeout: float) -> list[_ThreadReplica]:
        made: list[_ThreadReplica] = []
        for _ in range(count):
            # the caller's engine goes to the generation's first replica
            taken = any(r.engine is self.engine for r in self._replicas + made)
            engine = self.engine.replicate() if taken else self.engine
            made.append(_ThreadReplica(self, engine))
        return made
