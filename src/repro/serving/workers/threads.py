"""Thread-backed worker pool: K engine replicas on a thread-pool executor.

Replica 0 is the caller's engine (so its activation cache stays shared
with batch callers), replicas 1..K-1 come from ``engine.replicate()`` —
same ``Parameter`` arrays zero-copy, private context and cache each.
NumPy's GEMMs release the GIL, so batches genuinely overlap on multi-core
hosts; the Python glue between the GEMMs does not, which is what the
process backend (:mod:`repro.serving.workers.procpool`) exists to lift.

A batch takes one path: the replica's
:class:`~repro.serving.batcher.BatchStager` packs the request rows into
its pinned ``(max_batch_size, *input_shape)`` buffer (same layout as
``np.stack``, no per-batch allocation), then
:func:`~repro.serving.workers.base.compute_batch_array` and
:func:`~repro.serving.workers.base.assemble_results` run back to back on
the worker thread.

The fleet surface is implemented in-process: threads cannot die, so
:meth:`~WorkerPool.ensure_healthy` stays the base no-op, but the pool
scales (:meth:`ThreadWorkerPool.scale_to` replicates or drain-retires)
and swaps engines (:meth:`ThreadWorkerPool.swap_engine` builds a fresh
replica cohort over the new engine, retires the old one as each replica
finishes its in-flight batch, and bumps :attr:`~WorkerPool.generation`).
By the spawn-key rule, none of this changes any response bit.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ...uncertainty.metrics import UncertaintyResult
from ..batcher import BatchStager
from .base import WorkerPool, assemble_results, compute_batch_array

__all__ = ["ThreadWorkerPool"]


class _Replica:
    """One engine replica + its staging buffer + its drain-to-retire flag."""

    __slots__ = ("engine", "stager", "retiring")

    def __init__(self, engine, stager: BatchStager) -> None:
        self.engine = engine
        self.stager = stager
        self.retiring = False


class ThreadWorkerPool(WorkerPool):
    """Check batches out to K reentrant engine replicas in worker threads."""

    def __init__(
        self,
        engine,
        workers,
        num_samples,
        early_exit_threshold,
        *,
        max_batch_size,
        input_shape,
    ) -> None:
        super().__init__(
            engine,
            workers,
            num_samples,
            early_exit_threshold,
            max_batch_size=max_batch_size,
            input_shape=input_shape,
        )
        # replica 0 is the caller's engine (shared activation cache);
        # the rest share its parameters zero-copy but nothing per-call.
        # One pinned staging buffer per replica; checkout pairs them, so a
        # buffer is never written while its previous batch is in flight.
        self._replicas = [self._make_replica(engine)] + [
            self._make_replica(engine.replicate()) for _ in range(workers - 1)
        ]
        self._checkout: asyncio.Queue | None = None
        self._executor = None
        #: cache traffic of replicas already dropped from the roster
        #: (retired by a scale-down or an engine swap); live replicas are
        #: summed on read, so the pool totals survive replica turnover
        self._retired_cache_hits = 0
        self._retired_cache_misses = 0

    def _make_replica(self, engine) -> _Replica:
        return _Replica(engine, BatchStager(self.max_batch_size, self.input_shape))

    @property
    def cache_hits(self) -> int:  # type: ignore[override]
        return self._retired_cache_hits + sum(
            r.engine.cache_stats()[0] for r in self._replicas
        )

    @property
    def cache_misses(self) -> int:  # type: ignore[override]
        return self._retired_cache_misses + sum(
            r.engine.cache_stats()[1] for r in self._replicas
        )

    @property
    def current_workers(self) -> int:
        return sum(1 for r in self._replicas if not r.retiring)

    async def start(self, executor) -> None:
        if self._checkout is not None:
            # idempotent, like ServingEngine.start(): rebuilding the queue
            # here would re-enqueue replicas that are currently checked out
            return
        self._executor = executor
        self._checkout = asyncio.Queue()
        for replica in self._replicas:
            self._checkout.put_nowait(replica)

    async def stop(self) -> None:
        self._checkout = None
        self._executor = None
        for replica in self._replicas:
            if replica.retiring:
                self._bank_cache_stats(replica)
        self._replicas = [r for r in self._replicas if not r.retiring]

    # ------------------------------------------------------------------ #
    # fleet surface
    # ------------------------------------------------------------------ #
    def _bank_cache_stats(self, replica: _Replica) -> None:
        hits, misses = replica.engine.cache_stats()
        self._retired_cache_hits += hits
        self._retired_cache_misses += misses

    def _discard(self, replica: _Replica) -> None:
        if replica in self._replicas:
            self._bank_cache_stats(replica)
            self._replicas.remove(replica)

    def _drain_idle_retirees(self) -> None:
        """Drop every retiring replica currently parked in checkout."""
        if self._checkout is None:
            self._replicas = [r for r in self._replicas if not r.retiring]
            return
        keep: list[_Replica] = []
        while True:
            try:
                replica = self._checkout.get_nowait()
            except asyncio.QueueEmpty:
                break
            if replica.retiring:
                self._discard(replica)
            else:
                keep.append(replica)
        for replica in keep:
            self._checkout.put_nowait(replica)

    async def scale_to(self, target: int) -> None:
        """Grow (replicate) or shrink (drain-retire) to ``target`` replicas."""
        target = max(1, int(target))
        self.target_workers = target
        live = [r for r in self._replicas if not r.retiring]
        if target == len(live):
            return
        if target > len(live):
            for _ in range(target - len(live)):
                replica = self._make_replica(self.engine.replicate())
                self._replicas.append(replica)
                if self._checkout is not None:
                    self._checkout.put_nowait(replica)
        else:
            for replica in live[target:]:
                replica.retiring = True
            self._drain_idle_retirees()
        if self._checkout is None:
            self.workers = target
        self.scale_events += 1

    async def swap_engine(self, engine) -> int:
        """Swap in a new engine (weights/shapes may differ); new generation.

        A fresh same-size replica cohort is built over ``engine`` and the
        old cohort is marked retiring: an old replica with a batch in
        flight finishes it on the *old* engine object (never a torn read —
        each replica's engine is internally consistent) and is dropped on
        check-in.  No request fails.
        """
        old = [r for r in self._replicas if not r.retiring]
        self.engine = engine
        cohort = [self._make_replica(engine)] + [
            self._make_replica(engine.replicate())
            for _ in range(max(len(old), 1) - 1)
        ]
        self._replicas.extend(cohort)
        for replica in old:
            replica.retiring = True
        if self._checkout is not None:
            for replica in cohort:
                self._checkout.put_nowait(replica)
        self._drain_idle_retirees()
        self.generation += 1
        return self.generation

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    async def run(self, seq: int, payloads: list) -> list[UncertaintyResult]:
        assert self._checkout is not None, "pool is not started"
        while True:
            replica = await self._checkout.get()
            if replica.retiring:
                self._discard(replica)
                continue
            try:
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    self._executor, self._serve, replica, seq, payloads
                )
            finally:
                # drain-before-retire: a replica marked retiring while this
                # batch was in flight is dropped instead of re-enqueued
                if replica.retiring:
                    self._discard(replica)
                elif self._checkout is not None:
                    self._checkout.put_nowait(replica)

    def _serve(
        self, replica: _Replica, seq: int, payloads: list
    ) -> list[UncertaintyResult]:
        batch = replica.stager.stage(payloads)
        if batch is None:  # BatchStager's no-fit answer: same layout, allocated
            batch = np.stack(payloads)
        out = compute_batch_array(
            replica.engine, seq, batch, self.num_samples, self.early_exit_threshold
        )
        return assemble_results(out)
