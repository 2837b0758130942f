"""The replica roster: every fleet rule, written once for both backends.

By the spawn-key rule (:func:`~repro.serving.workers.base
.compute_batch_array`) a batch's bits depend on its sequence number, never
on which replica ran it, so replicas are interchangeable copies and the
job of handing batches to them is the same job for threads and processes.
:class:`WorkerPool` does that job — check a replica out, run one batch,
check it in or retire it, retry on a sibling if it died, respawn the
dead, roll a generation, keep the counters monotonic — over the small
:class:`Replica` contract.  A backend supplies only *how a replica is
made* (:meth:`WorkerPool._make_replicas`, plus whatever one generation's
replicas share) and *how a batch reaches it* (:meth:`Replica.serve`).

The rules, each stated once here and true of both backends:

* **At most ``depth`` batches per replica.**  A replica says how many
  batches it can hold at once (:attr:`Replica.depth`: one for an engine on
  a thread, one per ring slot for a process worker) and is offered for
  checkout that many times; :attr:`Replica.in_flight` counts the batches
  holding it.  Checkout hands out every replica's first place before any
  replica's second, so a batch queues behind another on one worker only
  when every worker is busy.  :meth:`Replica.serve` keeps each of those
  places until its exchange is really over — so a replica whose batch was
  cancelled mid-exchange (an executor thread still computing, a worker's
  reply still in flight) makes the next batch wait instead of running
  under it.
* **Crashes.**  A replica that dies under a batch (:class:`ReplicaDied`)
  is reaped and the batch is retried on a live sibling; the death is
  counted once in ``worker_crashes`` whether the batch path or the
  liveness scan saw it first.  With every replica dead, an unsupervised
  pool raises :class:`~repro.serving.workers.base.WorkerCrashed` to the
  batch and — through a poison token in the checkout queue — to every
  parked waiter; a supervised pool parks batches (bounded by
  ``respawn_wait``) until :meth:`WorkerPool.ensure_healthy` delivers a
  respawn.
* **Generations.**  :meth:`WorkerPool.swap_engine` opens the successor
  generation, makes a same-size cohort over it and *marks* the old cohort
  retiring — a retiring replica finishes its in-flight batches, takes no
  new one, and is shut down, once, by the check-in that brings
  ``in_flight`` to zero (drain-before-retire) — then waits out the drain
  and only then closes what the old generation shared.  No request fails
  and no batch runs on an old replica once its successors are enqueued.
* **Lifetime.**  Replicas exist from ``start()`` to ``stop()``; between
  the two, ``swap_engine`` only records the engine and generation for the
  next start.  ``stop()`` fails every batch parked on checkout with
  ``WorkerCrashed``.
* **Counters** are kept per replica and banked into the pool when a
  replica leaves the roster (retired, reaped, stopped), so pool totals
  never go backwards.

For deterministic crash-path testing the pool accepts a
:class:`~repro.serving.fleet.FaultPlan`: one injection is consumed per
delivery attempt, keyed on the batch sequence number, and rides into
:meth:`Replica.serve` as ``fault`` (``None`` in production).

Fleet events — crash, respawn, generation swap — leave one
``logging`` record each on this module's logger; the per-batch path logs
nothing.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading

from ...inference.engine import InferenceEngine
from ...uncertainty.metrics import UncertaintyResult
from .base import WorkerCrashed

__all__ = ["Replica", "ReplicaDied", "WorkerPool"]

LOG = logging.getLogger(__name__)

#: how long ``start`` waits for the initial cohort to become ready
_START_TIMEOUT_S = 120.0
#: per-replica counters the pool banks when a replica leaves the roster
_COUNTERS = (
    "ring_batches",
    "cache_hits",
    "cache_misses",
    "compute_ns",
    "cycle_ns",
)


class ReplicaDied(Exception):
    """Raised by :meth:`Replica.serve`: the worker behind it is gone."""


class Replica:
    """One interchangeable engine copy, as the roster sees it.

    A replica whose batch is a blocking call implements :meth:`execute`
    (:meth:`serve` runs it on the executor — or, for a lone thread
    replica, whose batch nothing could overlap, on the loop); one that can
    wait for its worker on the event loop overrides :meth:`serve` itself.
    Both override the liveness and teardown methods when there is
    something behind the replica that can die or must be released.
    """

    #: batches delivered over a shared-memory ring, activation-cache
    #: traffic, and the worker's time inside batches
    #: (``compute_ns``) out of its time between replies (``cycle_ns``), of
    #: this replica alone (``_COUNTERS``)
    ring_batches = cache_hits = cache_misses = 0
    compute_ns = cycle_ns = 0
    #: how many batches the replica can hold at once; the roster offers it
    #: for checkout this many times
    depth = 1

    def __init__(self) -> None:
        self.alive = True
        #: drain-before-retire flag: a retiring replica finishes its
        #: in-flight batches but is shut down instead of re-entering checkout
        self.retiring = False
        #: how many batches hold the replica right now (at most ``depth``);
        #: the liveness scan skips in-flight replicas (their own exchange
        #: surfaces the death) and a retiring one is shut down at zero
        self.in_flight = 0
        #: the executing batch and the liveness scan may both observe one
        #: death; it must count once
        self.crash_counted = False
        # held for as long as an exchange uses the replica.  A cancelled
        # batch hands the replica back while its exchange is still going;
        # the lock keeps the next batch (and shutdown) out until it is over
        self._lock = threading.Lock()

    async def serve(
        self, off_loop, seq: int, token, payloads: list, fault: str | None
    ) -> list[UncertaintyResult]:
        """Run one batch in one of the replica's places: one result per payload.

        ``off_loop(fn, *args)`` is the pool's way of running blocking work
        on its executor, ``token`` the pool's weights token for this batch
        and ``fault`` a test-only kill point.  Raises :class:`ReplicaDied`
        when the worker behind the replica died under the batch.  Here:
        :meth:`execute` on an executor thread, under the replica's lock —
        the thread of a cancelled batch keeps running and keeps the lock.
        """
        return await off_loop(self._execute_locked, seq, token, payloads, fault)

    def _execute_locked(self, seq: int, token, payloads: list, fault: str | None):
        with self._lock:
            return self.execute(seq, token, payloads, fault)

    def execute(
        self, seq: int, token, payloads: list, fault: str | None
    ) -> list[UncertaintyResult]:
        """Blocking form of :meth:`serve`, for replicas that compute in-thread."""
        raise NotImplementedError

    def is_alive(self) -> bool:
        """Probe the worker behind the replica right now."""
        return True

    def reap(self) -> None:
        """Mark dead and reclaim the worker's resources (idempotent)."""
        self.alive = False

    def shutdown(self) -> None:
        """Release a live replica in an orderly way (idempotent)."""
        self.alive = False


class WorkerPool:
    """A fleet of interchangeable replicas behind ``start`` / ``run`` / ``stop``.

    :class:`~repro.serving.engine.ServingEngine` drives the lifecycle
    triple; :mod:`repro.serving.fleet` drives :meth:`ensure_healthy`, and
    ``ServingEngine.swap_model`` drives :meth:`swap_engine`.  ``stop`` is
    idempotent and leaves the wrapped engine fully usable.  Counters are
    plain ints mutated only on the event loop (or under the GIL from
    executor threads) and feed ``ServingStats``.

    Pools know the batch geometry (largest batch, per-example shape) up
    front — the serving engine only accepts built models and ``submit()``
    rejects every payload of another shape.
    """

    #: the :attr:`Replica.depth` of the replicas this pool makes; the serving
    #: engine keeps ``workers × depth`` batches in flight
    depth = 1

    def __init__(
        self,
        engine: InferenceEngine,
        workers: int,
        num_samples: int | None,
        early_exit_threshold: float | None,
        *,
        max_batch_size: int,
        input_shape: tuple[int, ...],
        fault_plan=None,
        respawn_wait: float = 60.0,
    ) -> None:
        self.engine = engine
        #: fleet size; ``ensure_healthy`` restores it after crashes
        self.workers = int(workers)
        self.num_samples = num_samples
        self.early_exit_threshold = early_exit_threshold
        #: batch geometry: sizes the pinned assembly buffers (threads) and
        #: the ring slots (processes)
        self.max_batch_size = int(max_batch_size)
        self.input_shape = tuple(input_shape)
        #: set by a :class:`~repro.serving.fleet.WorkerSupervisor` when it
        #: takes ownership of crash recovery: a transiently dead fleet then
        #: *waits* for respawns instead of failing with ``WorkerCrashed``
        self.supervised = False
        #: dead replicas observed / replaced by ``ensure_healthy``
        self.worker_crashes = 0
        self.workers_respawned = 0
        #: model generation; bumped once per ``swap_engine``
        self.generation = 0
        #: test-only deterministic kill schedule (see repro.serving.fleet)
        self._fault_plan = fault_plan
        #: how long a batch waits on an all-dead supervised fleet, and a
        #: respawn / swap waits for its new replicas to be ready
        self._respawn_wait = float(respawn_wait)
        self._replicas: list[Replica] = []
        #: what the current generation's replicas share (``_open_generation``)
        self._shared = None
        #: counters of replicas no longer on the roster; live ones are
        #: summed on read
        self._banked = dict.fromkeys(_COUNTERS, 0)
        #: free places as ``(level, ticket, replica)``: a replica's n-th
        #: place has level n, lowest level first, first in first out within
        self._checkout: asyncio.PriorityQueue | None = None
        self._tickets = itertools.count()
        self._executor = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: in-progress retire shutdowns; stop() waits for these
        self._retire_futures: set = set()
        #: set whenever a retiring or dying replica has left the fleet for
        #: good; what ``swap_engine`` sleeps on while the old cohort drains
        self._departed = asyncio.Event()
        #: serializes fleet mutations (respawn / swap) against each other —
        #: the supervisor's health loop and a swap are separate tasks, and
        #: two concurrent spawns would race the roster
        self._fleet_lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # what a backend supplies
    # ------------------------------------------------------------------ #
    def _make_replicas(self, count: int, timeout: float) -> list[Replica]:
        """``count`` ready replicas of ``self.engine`` / ``self._shared``.

        Blocking, off-loop.  Either returns them all within ``timeout``
        seconds or raises having released whatever it made.
        """
        raise NotImplementedError

    def _open_generation(self, engine: InferenceEngine, generation: int):
        """Build what one generation's replicas share; blocking, off-loop.

        The result becomes ``self._shared`` while ``engine`` is the served
        one and goes to :meth:`_close_generation` once the last replica
        made over it has drained.
        """
        return None

    def _close_generation(self, shared) -> None:
        """Release an :meth:`_open_generation` result; blocking, off-loop."""

    def _weights_token(self):
        """Token passed to ``serve`` with each batch; on the event loop."""
        return None

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    def _total(self, counter: str) -> int:
        return self._banked[counter] + sum(getattr(r, counter) for r in self._replicas)

    def _forget(self, replicas) -> None:
        """Drop ``replicas`` from the roster, banking their counters."""
        for replica in replicas:
            if replica in self._replicas:
                self._replicas.remove(replica)
                for counter in _COUNTERS:
                    self._banked[counter] += getattr(replica, counter)

    @property
    def ring_batches(self) -> int:
        """Batches delivered over a shared-memory ring (process backend)."""
        return self._total("ring_batches")

    @property
    def cache_hits(self) -> int:
        """Activation-cache hits over every replica the pool has owned."""
        return self._total("cache_hits")

    @property
    def cache_misses(self) -> int:
        """Activation-cache misses over every replica the pool has owned."""
        return self._total("cache_misses")

    @property
    def busy_share(self) -> float:
        """Share of the replicas' time between replies spent inside batches."""
        cycle = self._total("cycle_ns")
        return self._total("compute_ns") / cycle if cycle else 0.0

    def _live(self) -> list[Replica]:
        return [r for r in self._replicas if r.alive and not r.retiring]

    @property
    def current_workers(self) -> int:
        """Replicas able to take a batch (the start size when not serving)."""
        if self._checkout is None and not self._replicas:
            return self.workers
        return len(self._live())

    @property
    def alive_workers(self) -> int:
        """Replicas whose worker probes alive *right now*.

        Stricter than :attr:`current_workers`: a silently dead worker stays
        on the roster until a liveness scan reaps it, but already reads
        dead here — which lets ``/v1/health`` flip the moment a worker
        dies instead of one supervisor interval later.
        """
        if self._checkout is None and not self._replicas:
            return self.workers
        return sum(1 for r in self._live() if r.is_alive())

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _off_loop(self, fn, *args):
        """Run blocking work on the executor.

        That is all lifecycle work (spawn, reap, shutdown) and whatever part
        of a batch its replica cannot do on the loop.
        """
        return asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)

    async def start(self, executor) -> None:
        if self._checkout is not None:
            # idempotent: rebuilding the queue would re-enqueue replicas
            # that are currently checked out
            return
        self._executor = executor
        self._loop = asyncio.get_running_loop()
        self._checkout = asyncio.PriorityQueue()
        try:
            self._shared = await self._off_loop(
                self._open_generation, self.engine, self.generation
            )
            await self._off_loop(self._add_replicas, self.workers, _START_TIMEOUT_S)
        except BaseException:
            await self.stop()
            raise

    def _add_replicas(self, count: int, timeout: float) -> None:
        """Make ``count`` replicas and register them; blocking, off-loop.

        Registration happens *here*, in the executor thread — the replicas
        join the roster immediately and the checkout enqueue is marshalled
        onto the event loop — so a cancelled awaiting task can never
        orphan a spawned worker: once this returns, stop() knows about it.
        """
        made = self._make_replicas(count, timeout)
        self._replicas.extend(made)  # GIL-atomic; the roster owns them now
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._enqueue, made)

    def _enqueue(self, replicas: list[Replica]) -> None:
        """Event-loop callback: offer freshly made replicas for checkout."""
        for replica in replicas:
            if replica.alive and not replica.retiring:
                for level in range(replica.depth):
                    self._offer(replica, level)

    def _offer(self, replica: Replica, level: int) -> None:
        if self._checkout is not None:  # a stopped pool takes no places back
            self._checkout.put_nowait((level, next(self._tickets), replica))

    async def stop(self) -> None:
        if self._checkout is None and not self._replicas:
            return
        checkout, self._checkout = self._checkout, None
        if checkout is not None:
            # wake the batches parked on it; each passes the wake-up on (run)
            checkout.put_nowait((0, next(self._tickets), None))
        if self._retire_futures:
            # let in-progress drain-before-retire shutdowns finish first;
            # they run on the executor we are about to drop
            await asyncio.gather(*list(self._retire_futures), return_exceptions=True)
        loop = asyncio.get_running_loop()
        executor, self._executor = self._executor, None
        self._loop = None
        await loop.run_in_executor(executor, self._close)
        self._departed.set()  # nothing is left for a swap to wait out

    def _close(self) -> None:
        for replica in self._replicas:
            replica.shutdown()
        self._forget(list(self._replicas))
        shared, self._shared = self._shared, None
        self._close_generation(shared)

    # ------------------------------------------------------------------ #
    # fleet surface (supervisor / generation swaps)
    # ------------------------------------------------------------------ #
    async def _bury(self, replica: Replica, cause: Exception | None = None) -> None:
        """Count one death, reap the replica off-loop, log what was found.

        The batch path and the health scan may both see the same death:
        both reap (idempotent), whoever came first counts and logs it.
        """
        first = not replica.crash_counted
        if first:
            replica.crash_counted = True
            self.worker_crashes += 1
        # reap blocks (terminate + join + ring unlink); keep it off the loop
        await self._off_loop(replica.reap)
        self._departed.set()
        if first:
            LOG.warning(
                "%r crashed (%s); %d of %d replicas left",
                replica,
                cause if cause is not None else "found dead by the liveness scan",
                len(self._live()),
                self.workers,
            )

    def _check_in(self, replica: Replica, level: int) -> None:
        """Return a place after a batch: back to checkout, or retire the replica."""
        replica.in_flight -= 1
        if replica.retiring:
            self._retire(replica)
        else:
            self._offer(replica, level)

    def _retire(self, replica: Replica) -> None:
        """Drop a drained replica from the roster; shut it down off-loop.

        Every place of a retiring replica ends up here — handed back by a
        batch, or found idle in checkout — and all but the one that finds
        the replica drained, and still on the roster, are simply dropped.
        """
        if replica.in_flight or replica not in self._replicas:
            return
        if self._executor is None:  # stopping: _close() takes the whole roster
            return
        self._forget([replica])
        fut = self._off_loop(replica.shutdown)
        self._retire_futures.add(fut)
        fut.add_done_callback(self._reap_retire_future)

    def _reap_retire_future(self, fut) -> None:
        self._retire_futures.discard(fut)
        self._departed.set()
        if not fut.cancelled():
            fut.exception()  # consume; shutdown() failures are best-effort

    def _drain_idle_retirees(self) -> None:
        """Retire every *idle* retiring replica parked in the checkout queue.

        In-flight retirees are retired by their last check-in.  Dead poison
        tokens are preserved only in unsupervised mode, where parked
        waiters rely on them to observe a total-pool death.
        """
        if self._checkout is None:
            return
        keep: list[tuple] = []
        while not self._checkout.empty():
            place = self._checkout.get_nowait()
            replica = place[-1]
            if replica.alive and replica.retiring:
                self._retire(replica)  # at most once; a spare place is dropped
            elif replica.alive or not self.supervised:
                keep.append(place)
        for place in keep:
            self._checkout.put_nowait(place)

    async def ensure_healthy(self) -> int:
        """Reap silently dead replicas and respawn up to ``workers``.

        A worker that dies *between* batches never fails an exchange, so
        only this liveness scan can find it.  In-flight replicas are
        skipped — their own exchange surfaces the death — which keeps the
        scan from reaping a worker mid-drain.  Returns how many replicas
        were respawned.
        """
        if self._checkout is None:
            return 0
        async with self._fleet_lock:
            if self._checkout is None:  # stopped while waiting on the lock
                return 0
            silent = [
                r
                for r in self._replicas
                if r.alive and not r.in_flight and not r.is_alive()
            ]
            for replica in silent:
                await self._bury(replica)
            # prune corpses (both silent deaths and batch-path reaps)
            self._forget([r for r in self._replicas if not r.alive])
            missing = self.workers - len(self._live())
            if missing <= 0 or self._checkout is None:
                return 0
            await self._off_loop(self._add_replicas, missing, self._respawn_wait)
            self.workers_respawned += missing
            LOG.info(
                "respawned %d replica(s); fleet back at %d", missing, len(self._live())
            )
            return missing

    async def swap_engine(self, engine: InferenceEngine) -> int:
        """Roll the fleet onto ``engine`` (weights **and shapes** may differ).

        Open generation ``n+1`` → make a same-size cohort over it → mark
        the old cohort retiring (each replica finishes its in-flight batch
        on the *old* engine, then shuts down) → close generation ``n``
        once nothing reads it.  Requests keep flowing throughout; every
        response comes from a replica whose generation was complete when
        it was made, so no reader ever sees a torn update.  Returns the
        new generation.
        """
        if self._checkout is None:
            self.engine = engine
            self.generation += 1
            return self.generation
        async with self._fleet_lock:
            old_shared = self._shared
            old_cohort = self._live()
            shared = await self._off_loop(
                self._open_generation, engine, self.generation + 1
            )
            # from here on every replica made (supervisor respawns
            # included) belongs to generation n+1 and the new engine
            self.engine = engine
            self._shared = shared
            self.generation += 1
            await self._off_loop(
                self._add_replicas, max(len(old_cohort), 1), self._respawn_wait
            )
            for replica in old_cohort:
                replica.retiring = True
            # wait out the drain: idle old-generation replicas retire here,
            # in-flight ones on their last check-in; alive flips false once
            # shutdown() ran off-loop (or the replica died and was reaped)
            self._drain_idle_retirees()
            while any(r.alive for r in old_cohort) or self._retire_futures:
                self._departed.clear()
                await self._departed.wait()
            await self._off_loop(self._close_generation, old_shared)
            LOG.info(
                "generation %d drained and closed; %d replica(s) serve generation %d",
                self.generation - 1,
                len(self._live()),
                self.generation,
            )
            return self.generation

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    async def run(self, seq: int, payloads: list) -> list[UncertaintyResult]:
        """Serve one assembled batch; concurrent calls are paced by checkout."""
        assert self._checkout is not None, "pool is not started"
        token = self._weights_token()
        while True:
            if self._checkout is None:
                # stop() ran while this batch was out burying its replica
                raise WorkerCrashed("the serving pool was stopped mid-batch")
            # fail fast once the whole pool is gone — without this check a
            # batch would park on the (then permanently empty) checkout
            # queue forever, wedging drain-on-stop along with it.  Under a
            # supervisor a transiently empty fleet is survivable: park on
            # checkout (bounded) until a respawn lands.
            checkout = self._checkout
            if any(r.alive for r in self._replicas):
                level, ticket, replica = await checkout.get()
            elif not self.supervised:
                raise WorkerCrashed(f"all {self.workers} serving workers have died")
            else:
                try:
                    level, ticket, replica = await asyncio.wait_for(
                        checkout.get(), self._respawn_wait
                    )
                except asyncio.TimeoutError:
                    if any(r.alive for r in self._replicas):
                        continue  # respawn landed but was snatched; retry
                    raise WorkerCrashed(
                        f"all serving workers died and no respawn arrived "
                        f"within {self._respawn_wait}s"
                    ) from None
            if self._checkout is not checkout:
                # stop() dropped the queue: wake the next waiter, raise at the top
                checkout.put_nowait((level, ticket, replica))
                continue
            if not replica.alive:
                if not self.supervised and not any(r.alive for r in self._replicas):
                    # a poison token from a total-pool death: pass the
                    # wake-up on to any other parked waiter, then raise at
                    # the loop top.  (A corpse's place met while siblings
                    # live — the batch in its other place saw it die — and
                    # any stale token under a supervisor, which owns
                    # recovery, is swallowed.)
                    self._offer(replica, level)
                continue
            if replica.retiring:
                # drain-before-retire: a retiring replica takes no new work
                self._retire(replica)
                continue
            fault = self._fault_plan.take(seq) if self._fault_plan is not None else None
            replica.in_flight += 1
            try:
                result = await replica.serve(
                    self._off_loop, seq, token, payloads, fault
                )
            except ReplicaDied as exc:
                replica.in_flight -= 1
                await self._bury(replica, exc)
                if not any(r.alive for r in self._replicas) and not self.supervised:
                    # poison the queue so waiters parked in get() wake up
                    # and observe the total death instead of hanging
                    self._offer(replica, level)
                    raise WorkerCrashed(
                        f"all {self.workers} serving workers have died (last: {exc})"
                    ) from exc
                continue  # retry the batch on a live sibling (or a respawn)
            except BaseException:
                self._check_in(replica, level)
                raise
            self._check_in(replica, level)
            return result
