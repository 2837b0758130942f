"""Async serving facade over the sample-folded inference engines.

:class:`ServingEngine` turns the batch-oriented engines of
:mod:`repro.inference` into a request/response service: callers submit one
example at a time, a :class:`~repro.serving.batcher.DynamicBatcher`
assembles concurrent requests into microbatches, and each microbatch runs
through the folded Monte-Carlo hot path (or the active-set early-exit path)
on one of ``workers`` engine replicas: on a thread-pool executor or in
worker processes, so the asyncio event loop keeps serving while batches
overlap — except for a lone thread replica, whose one batch in flight
nothing could overlap, which computes on the loop.

Request lifecycle::

    submit(x) ──► DynamicBatcher: bounded EDF pending set ──► replica checkout
                  (backpressure, size/latency triggers)      │
                                                             ▼
    UncertaintyResult ◄── per-example split ◄── folded predict_mc /
    (+ latency stamp)                           early_exit_predict
                                                (K-worker executor, worker
                                                processes, or the loop at K=1)

Multi-worker serving (``workers=K``) exploits the reentrancy of the layer
stack: each worker owns an engine *replica* — same ``Parameter`` storage
(zero-copy), private :class:`~repro.nn.context.ForwardContext` and
activation cache.  Two interchangeable backends execute the batches
(see :mod:`repro.serving.workers`): ``worker_backend="thread"`` runs
replicas on a thread pool (NumPy's GEMMs release the GIL, so GEMM-heavy
batches overlap on multi-core hosts), while ``worker_backend="process"``
spawns K worker *processes* over a shared-memory parameter arena — lifting
the GIL ceiling entirely for small, glue-bound models, with crash
isolation and weight updates propagated through the shared segment.
Every batch gets a *fresh context spawned from the layers' seeds and the
batch's sequence number*, which makes a batch's results deterministic and
independent of which worker computes it, which backend runs it, or what
that worker served before.  Consequently ``workers=1`` and ``workers=4``
servers — thread or process — produce bit-identical responses whenever
they form the same batches, e.g. under one-request-at-a-time submission;
a concurrent flood may batch differently across worker counts (different
batch boundaries ⇒ different spawned contexts), changing MC draws while
keeping the distributional semantics.

The response type is :class:`repro.uncertainty.UncertaintyResult` — mean
probabilities plus calibrated uncertainty (predictive entropy, and mutual
information when MC samples are drawn), the exit index in early-exit mode,
and the end-to-end request latency.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.bayesnn import MultiExitBayesNet
from ..metrics import nearest_rank_percentile
from ..uncertainty.metrics import UncertaintyResult
from .batcher import DynamicBatcher
from .config import ServingConfig
from .fleet import WorkerSupervisor
from .workers import ProcessWorkerPool, ThreadWorkerPool

__all__ = ["ServingEngine", "ServingStats"]

_POOL_BACKENDS = {"thread": ThreadWorkerPool, "process": ProcessWorkerPool}


def _served_model(model: MultiExitBayesNet) -> MultiExitBayesNet:
    if not isinstance(model, MultiExitBayesNet):
        raise TypeError(
            f"model must be a MultiExitBayesNet, got {type(model).__name__}"
        )
    return model


@dataclass
class ServingStats:
    """Aggregate view of a :class:`ServingEngine`'s lifetime so far.

    Attributes
    ----------
    requests_completed / requests_rejected / requests_cancelled:
        Request outcome counters (from the underlying batcher).
    num_batches / mean_batch_size / queue_peak:
        Batch-assembly counters — how well dynamic batching amortised the
        folded passes, and the high-water mark of requests accepted and not
        yet dispatched (never above ``max_queue_size``; batches in flight
        are bounded separately, by ``workers x depth``).
    throughput_rps:
        Completed requests per second of wall time between the first
        submission and the latest completion (0.0 before any completion).
    latency_p50_s / latency_p95_s / latency_p99_s / latency_max_s:
        Nearest-rank percentiles (:mod:`repro.metrics`, the statistic the
        load generator reports too) of end-to-end request latency (submit
        to response, queueing included), over a bounded window of the most
        recent requests.
    exit_counts:
        In early-exit mode, completed requests per exit index; ``None``
        in MC-sampling mode.
    workers / worker_backend:
        Size and kind (``"thread"``/``"process"``) of the replica pool
        serving batches.
    worker_crashes:
        Worker processes that died mid-service; their in-flight batches
        were retried on live siblings (always 0 for the thread backend).
    requests_shed:
        Requests rejected with ``DeadlineExceeded`` by the opt-in
        shed-on-missed-deadline policy (``admission_timeout``).
    transport_ring_batches:
        Process backend: batches that crossed the boundary through the
        shared-memory ring (always 0 for the thread backend).
    workers_respawned / current_workers / arena_generation:
        Fleet telemetry (see :mod:`repro.serving.fleet`): dead workers
        replaced by the supervisor, replicas currently able to take a
        batch, and the shared-arena generation (bumped once per
        zero-downtime model swap).
    cache_hits / cache_misses:
        Content-keyed activation-cache traffic summed over every replica
        the pool has owned (thread replicas report directly, process
        workers piggyback deltas on each batch acknowledgement).  A hit
        means a batch's bytes were served before under the current
        weights and the deterministic forward prefix was skipped.
    worker_busy_share:
        Σ time inside batches / Σ time between replies, over every replica
        the pool has owned (process workers piggyback both on each batch
        acknowledgement, thread replicas time themselves).  Under
        saturating load it says how much of a worker the serving glue
        leaves idle; under light load it is simply utilisation.
    """

    requests_completed: int
    requests_rejected: int
    requests_cancelled: int
    num_batches: int
    mean_batch_size: float
    queue_peak: int
    throughput_rps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_max_s: float
    exit_counts: list[int] | None = None
    workers: int = 1
    #: ``"thread"`` or ``"process"`` — where batches execute
    worker_backend: str = "thread"
    #: worker processes that died and were replaced-by-retry (process backend)
    worker_crashes: int = 0
    #: requests rejected by the shed-on-missed-deadline policy (see
    #: :class:`~repro.serving.batcher.DynamicBatcher` ``admission_timeout``)
    requests_shed: int = 0
    #: process backend: batches shipped via the shm ring
    transport_ring_batches: int = 0
    #: dead workers replaced by the supervisor (crash-retry excluded)
    workers_respawned: int = 0
    #: replicas currently able to take a batch (dips while a death is
    #: being replaced)
    current_workers: int = 0
    #: replicas whose worker probes alive *right now* (process liveness;
    #: a silent death shows here before the supervisor reaps it)
    alive_workers: int = 0
    #: shared-arena generation; +1 per zero-downtime ``swap_model``
    arena_generation: int = 0
    #: content-keyed activation-cache traffic summed over every replica the
    #: pool has owned: a hit skips the deterministic forward prefix for a
    #: batch whose bytes were served before under the current weights
    cache_hits: int = 0
    cache_misses: int = 0
    #: share of the workers' time between replies spent inside batches
    #: (staging reads, compute, writing the response) — the rest they waited
    #: for a request or sat in the reply's send; 0.0 before any batch
    worker_busy_share: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form — the ``GET /v1/stats`` wire payload."""
        return asdict(self)


class ServingEngine:
    """Asynchronous single-example serving of a multi-exit MCD BayesNN.

    Parameters
    ----------
    model:
        The :class:`~repro.core.bayesnn.MultiExitBayesNet` to serve — every
        Table I variant is one (SE and MCD with ``num_exits=1``).  Its
        lazily-built folded engine is reused, so activation caches are
        shared with batch callers.
    config:
        A :class:`~repro.serving.config.ServingConfig` describing
        everything else: inference mode (``num_samples`` /
        ``early_exit_threshold``), the nested
        :class:`~repro.serving.config.BatcherConfig` (batching,
        backpressure, deadline shedding), the worker fleet (``workers``,
        ``worker_backend``), an optional
        :class:`~repro.serving.fleet.FleetConfig` and the test-only
        :class:`~repro.serving.fleet.FaultPlan`.  Field semantics are
        documented on the config classes; the config round-trips through
        :meth:`~repro.serving.config.ServingConfig.to_dict` /
        ``from_dict`` so the network front end
        (:mod:`repro.serving.server`) can carry it as JSON.  ``None``
        serves with all defaults.
    executor:
        Executor for the parent-side work (NumPy for threads, channel I/O
        for processes).  Defaults to a private ``workers``-thread pool.
        A custom executor must provide at least ``workers`` threads;
        worker checkout still guarantees no replica runs two batches at
        once.  Deliberately *not* part of the config: an executor is a
        live resource, not serializable policy.

    Examples
    --------
    >>> # doctest: +SKIP
    >>> config = ServingConfig(num_samples=8, workers=4)
    >>> async with model.serving_engine(config=config) as server:
    ...     result = await server.submit(example, deadline=0.050)
    ...     print(result.label, result.confidence, result.latency_s)
    """

    def __init__(
        self,
        model: MultiExitBayesNet,
        config: ServingConfig | None = None,
        *,
        executor: Executor | None = None,
    ) -> None:
        if config is None:
            config = ServingConfig()
        elif not isinstance(config, ServingConfig):
            raise TypeError(
                f"config must be a ServingConfig, got {type(config).__name__}"
            )
        self.engine = _served_model(model).engine
        self.config = config
        self.num_samples = config.num_samples
        self.early_exit_threshold = config.early_exit_threshold
        self.workers = int(config.workers)
        self.worker_backend = config.worker_backend
        self.fleet = config.fleet
        pool_kwargs = dict(
            workers=self.workers,
            num_samples=config.num_samples,
            early_exit_threshold=config.early_exit_threshold,
            # the batch geometry is always known (built model, validated
            # submissions): it sizes the process workers' ring slots
            max_batch_size=config.batcher.max_batch_size,
            input_shape=self.input_shape,
            fault_plan=config.fault_plan,
        )
        if self.fleet is not None:
            pool_kwargs["respawn_wait"] = self.fleet.respawn_wait
        self._pool = _POOL_BACKENDS[config.worker_backend](self.engine, **pool_kwargs)
        self.supervisor: WorkerSupervisor | None = None
        self._batch_seq = 0
        self._batcher = DynamicBatcher(
            self._dispatch,
            **config.batcher.to_dict(),
            max_concurrent_batches=self.workers * self._pool.depth,
        )
        self._executor = executor
        self._owns_executor = executor is None
        # bounded: a long-lived server must not accumulate one float per
        # request forever; percentiles are over the most recent window
        self._latencies: deque[float] = deque(maxlen=16384)
        self._exit_counts: list[int] | None = None
        if config.early_exit_threshold is not None:
            self._exit_counts = [0] * model.num_exits
        self._first_submit_at: float | None = None
        self._last_done_at: float | None = None

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Per-example input shape every request must match."""
        return tuple(self.engine.model.input_shape)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._batcher.running

    async def start(self) -> None:
        """Start the worker pool and the batching loop (idempotent).

        With ``worker_backend="process"`` this is where the shared-memory
        arena is built and the K worker processes spawn — expect a startup
        cost of an interpreter + imports per worker.
        """
        if self._executor is None:
            # headroom beyond the fleet: supervisor respawns and
            # drain-retire shutdowns run on this executor concurrently
            # with up to ``workers`` in-flight batches
            extra = 2 if self.fleet is not None else 0
            self._executor = ThreadPoolExecutor(
                self.workers + extra, thread_name_prefix="repro-serving"
            )
        await self._pool.start(self._executor)
        await self._batcher.start()
        if self.fleet is not None:
            if self.supervisor is None:
                self.supervisor = WorkerSupervisor(self._pool, self.fleet)
            await self.supervisor.start()

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain=True`` answer queued requests first.

        The supervisor keeps healing through the drain (queued requests
        must survive a crash during shutdown) and detaches just before
        the pool itself is torn down: process workers exit, and the
        shared-memory arena (if any) is released — parameters return to
        private storage and the model remains fully usable, training
        included.
        """
        await self._batcher.stop(drain=drain)
        if self.supervisor is not None:
            await self.supervisor.stop()
        await self._pool.stop()
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def swap_model(self, model: MultiExitBayesNet) -> int:
        """Hot-swap the served model with zero downtime; returns the generation.

        Weights **and shapes** may differ from the current model (e.g. a
        DSE rescaling picked a new width) — only the per-example input
        shape and the number of classes must match, since in-flight and
        queued requests were validated against them.  The rollout follows
        the arena-generation protocol (:mod:`repro.nn.shm`): a successor
        arena is built, a fresh worker cohort attaches to it, the old
        cohort drains and retires, and the old arena is released.  No
        request fails and no reader ever sees a torn update; responses
        switch from old-model to new-model bits at a batch boundary.
        """
        model = _served_model(model)
        new_shape = tuple(model.input_shape)
        if new_shape != self.input_shape:
            raise ValueError(
                f"swapped model must keep the input shape {self.input_shape}, "
                f"got {new_shape}"
            )
        old_classes = self.engine.model.num_classes
        if model.num_classes != old_classes:
            raise ValueError(
                f"swapped model must keep the number of classes {old_classes}, "
                f"got {model.num_classes}"
            )
        if self._exit_counts is not None:
            # a deeper successor retires rows at exits the old one lacked,
            # and its cohort serves before the swap returns
            grow = model.num_exits - len(self._exit_counts)
            self._exit_counts.extend([0] * grow)
        generation = await self._pool.swap_engine(model.engine)
        self.engine = model.engine
        return generation

    async def __aenter__(self) -> "ServingEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=True)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    async def submit(
        self, x: np.ndarray, deadline: float | None = None
    ) -> UncertaintyResult:
        """Serve one example; awaits until its microbatch has been computed.

        Parameters
        ----------
        x:
            A single example of the model's per-sample input shape (no batch
            dimension), e.g. ``(C, H, W)``.
        deadline:
            Optional latency budget in seconds.  Requests waiting for batch
            assembly are scheduled earliest-deadline-first under backlog;
            without a deadline the request keeps arrival order behind every
            deadlined one.  Ordering only by default — with
            ``admission_timeout`` configured, a request that misses its
            deadline before dispatch is shed with
            :class:`~repro.serving.batcher.DeadlineExceeded` instead.

        Returns
        -------
        UncertaintyResult
            Prediction + uncertainty for this example, with ``latency_s``
            covering queueing, batching and compute.

        Raises
        ------
        ServerOverloaded
            Queue full and ``reject_on_full`` is set.  With the default
            awaiting policy, overload instead slows submitters down.
        DeadlineExceeded
            The request expired before dispatch and ``admission_timeout``
            is configured (shed-on-missed-deadline policy).
        WorkerCrashed
            Process backend only: every worker process died.  Individual
            crashes are retried transparently and only counted in stats.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.input_shape:
            # fail fast: a mis-shaped payload must never reach batch
            # assembly, where it would fail the whole microbatch it rides in
            raise ValueError(
                f"expected a single example of shape {self.input_shape}, "
                f"got {x.shape}"
            )
        t0 = time.perf_counter()
        if self._first_submit_at is None:
            self._first_submit_at = t0
        result = await self._batcher.submit(x, deadline=deadline)
        done = time.perf_counter()
        latency = done - t0
        self._last_done_at = done
        self._latencies.append(latency)
        if self._exit_counts is not None and result.exit_index is not None:
            self._exit_counts[result.exit_index] += 1
        # each result object belongs to exactly one request: stamp in place
        result.latency_s = latency
        return result

    async def submit_many(
        self,
        xs: np.ndarray | Iterable[np.ndarray],
        deadline: float | Sequence[float | None] | None = None,
    ) -> list[UncertaintyResult]:
        """Serve many examples concurrently; results keep submission order.

        ``deadline`` mirrors :meth:`submit`'s parameter: a scalar applies
        one latency budget to every example, a sequence supplies one
        budget per example (``None`` entries leave that example
        deadline-less) and must match ``xs`` in length.
        """
        xs = list(xs)
        if deadline is None or isinstance(deadline, (int, float)):
            deadlines: list[float | None] = [deadline] * len(xs)
        else:
            deadlines = list(deadline)
            if len(deadlines) != len(xs):
                raise ValueError(
                    f"deadline sequence has {len(deadlines)} entries "
                    f"for {len(xs)} examples"
                )
        return list(
            await asyncio.gather(
                *(self.submit(x, deadline=d) for x, d in zip(xs, deadlines))
            )
        )

    # ------------------------------------------------------------------ #
    # batch execution (runs on the event loop + the replica's worker)
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, payloads: list[np.ndarray]
    ) -> Sequence[UncertaintyResult]:
        # the sequence number is assigned here, on the event loop, in batch-
        # assembly order — it seeds the batch's spawned RNG context, which is
        # what makes responses independent of worker count, backend and
        # scheduling (see repro.serving.workers.base.compute_batch_array)
        seq = self._batch_seq
        self._batch_seq += 1
        return await self._pool.run(seq, payloads)

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self) -> ServingStats:
        """Aggregate throughput/latency/batching statistics so far."""
        b = self._batcher.stats
        lat = np.sort(np.asarray(self._latencies, dtype=np.float64))
        if self._first_submit_at is not None and self._last_done_at is not None:
            wall = self._last_done_at - self._first_submit_at
        else:
            wall = 0.0
        if lat.size:
            p50, p95, p99 = (nearest_rank_percentile(lat, p) for p in (50, 95, 99))
            worst = float(lat[-1])
        else:
            p50 = p95 = p99 = worst = 0.0
        return ServingStats(
            requests_completed=b.completed,
            requests_rejected=b.rejected,
            requests_cancelled=b.cancelled,
            num_batches=b.batches,
            mean_batch_size=b.mean_batch_size,
            queue_peak=b.queue_peak,
            throughput_rps=b.completed / wall if wall > 0 else 0.0,
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            latency_max_s=worst,
            exit_counts=list(self._exit_counts) if self._exit_counts else None,
            workers=self.workers,
            worker_backend=self.worker_backend,
            worker_crashes=self._pool.worker_crashes,
            requests_shed=b.shed,
            transport_ring_batches=self._pool.ring_batches,
            workers_respawned=self._pool.workers_respawned,
            current_workers=self._pool.current_workers,
            alive_workers=self._pool.alive_workers,
            arena_generation=self._pool.generation,
            cache_hits=self._pool.cache_hits,
            cache_misses=self._pool.cache_misses,
            worker_busy_share=self._pool.busy_share,
        )

    @property
    def alive_workers(self) -> int:
        """Workers that probe alive right now (see ``WorkerPool.alive_workers``)."""
        return self._pool.alive_workers
