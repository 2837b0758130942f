"""Process-backed worker pool: true multi-core serving over shared weights.

Thread replicas only scale while NumPy holds the GIL-released GEMMs long
enough to hide the Python glue around them; on small models the glue
dominates and K threads flatline near 1x.  This backend runs each replica
in its **own process**:

* At ``start`` the pool moves every ``Parameter`` value into one
  :class:`~repro.nn.shm.SharedParameterArena` segment and spawns K workers.
  Each worker receives a pickled engine whose shared parameters serialize
  as ``(segment, offset, shape)`` descriptors — kilobytes, not weights —
  and reconstructs a zero-copy replica over the very same storage
  (unpickling an engine *is* ``replicate()`` across the process boundary).
* **Two request frames.**  With ``transport="ring"`` (the default) each
  worker owns a one-slot shared-memory
  :class:`~repro.serving.workers.ring.BatchRing`, sized from the pool's
  batch geometry: the parent writes the request rows straight into the
  slot, the pipe carries only a ``("ring", seq, token, slot, fault)``
  doorbell, and the worker reads the batch as a zero-copy view and writes
  the result arrays into the slot's response region (``("ok_ring", slot,
  mode, cache_delta)``).  The one other frame is
  ``("batch", seq, token, array, fault)`` — the batch ``np.stack``-ed in
  the parent and pickled down the pipe, answered ``("ok", out,
  cache_delta)``.  It is the whole protocol under ``transport="pipe"`` and
  the fallback whenever the ring refuses a batch (``stage_request`` /
  ``write_response`` returning no-fit).  Same array layout either way, so
  both frames feed :func:`~repro.serving.workers.base.compute_batch_array`
  bit-identical operands.  The channel carries inputs and probabilities
  only, never model state.
* **One exchange per worker at a time.**  Checkout hands a worker to one
  batch, and the handle lock keeps the request/response exchange atomic
  even when a cancelled batch's thread is still draining its reply — which
  is why one slot per worker is enough: the slot belongs to the exchange
  for as long as the lock is held.
* **Staleness:** weight mutations in the parent (optimizer steps,
  ``assign``, quantization) write straight into the shared segment, so
  workers always *read* current bytes; the ``weights_token`` riding on
  each request tells a worker when the weights changed so it re-syncs its
  local version counters from the arena and drops its activation caches —
  the same ``weights_version`` rule that keeps in-process caches honest.
  Updates are not transactional against in-flight batches: quiesce
  submissions around an update if a batch must never mix old and new
  weights.
* **Crashes:** a worker that dies (OOM killer, segfault, ``kill -9``)
  fails pipe I/O in the parent; its in-flight batch is retried on a live
  sibling (each worker has its own ring, so a batch staged into a dead
  worker's slot is simply re-staged into the sibling's), the dead
  worker's ring segment is unlinked with it, and the death is surfaced
  via ``worker_crashes``.  Without a supervisor, ``WorkerCrashed``
  reaches callers once no worker is left; with one
  (:class:`~repro.serving.fleet.WorkerSupervisor`), dead workers are
  respawned attached to the current arena + a fresh ring, and a
  transiently empty fleet parks batches until a respawn lands.
* **Elasticity:** :meth:`ProcessWorkerPool.scale_to` grows the fleet by
  spawning extra workers over the same arena and shrinks it by *marking*
  workers retiring — a retiring worker finishes its in-flight batch,
  takes no new ones, and is shut down on check-in (drain-before-retire).
* **Generations:** :meth:`ProcessWorkerPool.swap_engine` rolls the fleet
  onto a *new* engine — weights **and shapes** may differ — by building
  a successor :class:`~repro.nn.shm.SharedParameterArena` (generation
  n+1), spawning a same-size cohort attached to it, draining and
  retiring the old cohort, then releasing the old arena.  No request
  fails, and no worker ever reads a half-updated parameter: a
  generation's segment is immutable-in-shape for its whole lifetime.
* **Counters** (ring/pipe batches, activation-cache hits/misses) are kept
  per worker handle and banked into the pool when a handle leaves the
  roster, so pool totals never go backwards across retires, reaps,
  respawns and swaps.

Workers are spawned (not forked): forking a process that already runs an
asyncio loop plus BLAS threads is unsound, and spawn keeps the backend
portable.  Startup therefore costs a Python interpreter + import per
worker — amortised over a serving lifetime, irrelevant per request.

For deterministic crash-path testing the pool accepts a
:class:`~repro.serving.fleet.FaultPlan`: the parent consumes one
injection per delivery attempt keyed on the batch sequence number and
either kills the victim before the doorbell or poisons the message so
the worker traps and dies at the requested lifecycle point (the
``fault`` field riding every request frame; ``None`` in production).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from ...nn.shm import ArenaManifest, SharedParameterArena
from ...uncertainty.metrics import UncertaintyResult
from .base import (
    BatchOutput,
    WorkerCrashed,
    WorkerPool,
    assemble_results,
    compute_batch_array,
    engine_num_classes,
    engine_parameters,
)
from .ring import BatchRing, RingManifest

__all__ = ["ProcessWorkerPool"]

#: how often a parent thread waiting on a worker re-checks its liveness
_POLL_INTERVAL_S = 0.2
#: spawn, never fork: the parent runs an asyncio loop plus BLAS threads
_MP_CONTEXT = "spawn"
#: how long ``start`` waits for the initial cohort's ready handshakes
_START_TIMEOUT_S = 120.0
#: each worker's ring has one slot — exchanges are serialised per worker
_SLOT = 0
#: per-handle counters the pool banks when a handle leaves the roster
_COUNTERS = ("ring_batches", "pipe_batches", "cache_hits", "cache_misses")

#: response modes on the ring acknowledgement
_MODE_MC = 0  # one array: sample_probs (S, N, classes)
_MODE_EARLY_EXIT = 1  # two arrays: probs (N, classes), exit_indices (N,)


class _WorkerDied(Exception):
    """Internal: the worker process behind a handle is gone."""


@dataclass
class _WorkerConfig:
    """Everything a worker needs, pickled once at spawn."""

    engine: object  # InferenceEngine | NetworkEngine, shm-backed parameters
    num_samples: int | None
    early_exit_threshold: float | None
    manifest: ArenaManifest


def _batch_output_arrays(out: BatchOutput) -> tuple[int, list[np.ndarray]]:
    """(ring mode, arrays in slot order) for one batch result."""
    if out.sample_probs is not None:
        return _MODE_MC, [out.sample_probs]
    return _MODE_EARLY_EXIT, [out.probs, out.exit_indices]


def _worker_main(
    conn, config: _WorkerConfig, ring_manifest: RingManifest | None
) -> None:
    """Worker process entry point: serve batches until told to stop."""
    engine = config.engine
    arena = SharedParameterArena.attached(
        config.manifest, list(engine_parameters(engine))
    )
    arena.refresh()
    ring = BatchRing.attached(ring_manifest) if ring_manifest is not None else None
    seen_token = None
    # cache counters already reported to the parent; each reply carries the
    # delta since the previous one, so parent totals survive worker deaths
    seen_hits = seen_misses = 0
    try:
        conn.send(("ready", os.getpid()))
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "stop":
                break
            _, seq, token, payload, fault = msg
            try:
                # "ring": payload names the slot holding the staged batch;
                # "batch": payload is the batch itself, stacked by the parent
                batch = ring.read_request(payload) if kind == "ring" else payload
                if fault == "mid_compute":
                    # poisoned request (FaultPlan, test-only): die holding it
                    # exactly as a real mid-compute crash would — after
                    # mapping the slot, before producing any response
                    os._exit(70)
                if token != seen_token:
                    # weights changed in the parent: sync version counters
                    # from the arena and drop activation caches keyed on
                    # the stale token (the shared bytes are already current)
                    arena.refresh()
                    engine.invalidate_cache()
                    seen_token = token
                out = compute_batch_array(
                    engine, seq, batch, config.num_samples, config.early_exit_threshold
                )
            except Exception as exc:  # compute failed; the worker lives on
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            else:
                hits, misses = engine.cache_stats()
                delta = (hits - seen_hits, misses - seen_misses)
                seen_hits, seen_misses = hits, misses
                mode, arrays = _batch_output_arrays(out)
                if kind == "ring" and ring.write_response(payload, arrays):
                    conn.send(("ok_ring", payload, mode, delta))
                else:  # pipe frame, or the response outgrew the slot
                    conn.send(("ok", out, delta))
                if fault == "post_response":
                    # die *after* answering, before the parent recycles the
                    # slot: a silent death only a liveness scan can find
                    os._exit(71)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away (or interactive interrupt): just exit
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class _WorkerHandle:
    """Parent-side endpoint of one worker process."""

    def __init__(
        self,
        index: int,
        process,
        conn,
        ring: BatchRing | None,
        generation: int = 0,
    ) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: this worker's one-slot ring; ``None`` under ``transport="pipe"``
        self.ring = ring
        self.alive = True
        #: which arena generation this worker attached at spawn; retired
        #: (never mutated) by a generation swap
        self.generation = generation
        #: drain-before-retire flag: a retiring worker finishes its
        #: in-flight batch but is shut down instead of re-entering checkout
        self.retiring = False
        #: whether an executor thread is currently inside execute(); the
        #: supervisor's liveness scan skips in-flight handles (their own
        #: exchange surfaces the death) to avoid reaping under a live drain
        self.in_flight = False
        #: crash accounting guard: the executing batch and the liveness
        #: scan may both observe one death; it must count once
        self.crash_counted = False
        #: transport breakdown for this worker's batches, and the
        #: activation-cache traffic in the worker process accumulated from
        #: the per-reply deltas (the pool's ``_COUNTERS``)
        self.ring_batches = 0
        self.pipe_batches = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # execute() is called from pool-executor threads; the lock keeps a
        # send/recv exchange — and with it the ring slot — owned by one
        # batch at a time even if a cancelled batch's thread is still
        # draining its response
        self._lock = threading.Lock()

    def _stage(self, payloads: list) -> bool:
        """Write the batch into the ring slot; ``False`` = ship it by pipe."""
        if self.ring is None:
            return False
        dest = self.ring.stage_request(_SLOT, (len(payloads), *payloads[0].shape))
        if dest is None:  # does not fit the slot, or the ring is released
            return False
        for i, payload in enumerate(payloads):
            dest[i] = payload
        return True

    def execute(
        self, seq: int, token: int, payloads: list, fault: str | None = None
    ) -> list[UncertaintyResult]:
        """Blocking request/response exchange; runs on an executor thread."""
        with self._lock:
            try:
                staged = self._stage(payloads)
                if fault == "pre_doorbell":
                    # FaultPlan (test-only): deterministic crash *between*
                    # staging and the doorbell — the batch dies holding the
                    # ring slot and must be re-staged on a sibling
                    self.process.kill()
                    self.process.join(5.0)
                if staged:
                    self.conn.send(("ring", seq, token, _SLOT, fault))
                    self.ring_batches += 1
                else:
                    self.conn.send(("batch", seq, token, np.stack(payloads), fault))
                    self.pipe_batches += 1
                while not self.conn.poll(_POLL_INTERVAL_S):
                    if not self.process.is_alive():
                        raise _WorkerDied(
                            f"worker {self.index} died "
                            f"(exitcode {self.process.exitcode})"
                        )
                reply = self.conn.recv()
                if reply[0] == "error":
                    raise RuntimeError(
                        f"serving worker {self.index} failed: {reply[1]}"
                    )
                if reply[0] == "ok":
                    _, out, delta = reply
                else:  # "ok_ring": the result arrays are views of the slot
                    _, slot, mode, delta = reply
                    arrays = self.ring.read_response(slot)
                    if mode == _MODE_MC:
                        out = BatchOutput(sample_probs=arrays[0])
                    else:
                        # early-exit results keep per-row views of probs,
                        # so copy out of the slot before it is reused
                        out = BatchOutput(
                            probs=arrays[0].copy(), exit_indices=arrays[1].copy()
                        )
                self.cache_hits += delta[0]
                self.cache_misses += delta[1]
                # assembled under the lock: the slot is still this batch's
                return assemble_results(out)
            except (OSError, EOFError) as exc:
                # OSError covers BrokenPipeError/ConnectionResetError and
                # also "handle is closed": teardown may close the pipe while
                # a cancelled batch's executor thread still drains it here
                raise _WorkerDied(f"worker {self.index}: {exc!r}") from None

    def _release_ring(self) -> None:
        if self.ring is not None:
            self.ring.release()

    def reap(self) -> None:
        """Mark dead and reclaim OS resources (idempotent)."""
        self.alive = False
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self._release_ring()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit, escalating to terminate."""
        if not self.alive:
            return
        self.alive = False
        # serialize the stop frame with any executor thread still inside
        # execute() (a cancelled batch's thread keeps draining the pipe) —
        # two concurrent send()s would interleave bytes on the channel.
        # Bounded wait: a wedged exchange falls through to terminate below.
        locked = self._lock.acquire(timeout=timeout)
        try:
            if locked and self.process.is_alive():
                try:
                    self.conn.send(("stop",))
                except OSError:
                    pass
        finally:
            if locked:
                self._lock.release()
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self._release_ring()


class ProcessWorkerPool(WorkerPool):
    """K spawned worker processes over one shared-memory parameter arena."""

    def __init__(
        self,
        engine,
        workers,
        num_samples,
        early_exit_threshold,
        *,
        max_batch_size: int,
        input_shape: tuple[int, ...],
        transport: str = "ring",
        fault_plan=None,
        respawn_wait: float = 60.0,
    ) -> None:
        super().__init__(
            engine,
            workers,
            num_samples,
            early_exit_threshold,
            max_batch_size=max_batch_size,
            input_shape=input_shape,
        )
        if transport not in ("ring", "pipe"):
            raise ValueError(f"transport must be 'ring' or 'pipe', got {transport!r}")
        self.transport = transport
        #: test-only deterministic kill schedule (see repro.serving.fleet)
        self._fault_plan = fault_plan
        #: supervised mode: how long a batch waits on an all-dead fleet
        #: for the supervisor to deliver a respawn before giving up
        self._respawn_wait = float(respawn_wait)
        self._arena: SharedParameterArena | None = None
        self._handles: list[_WorkerHandle] = []
        #: counters of handles no longer on the roster (retired, reaped,
        #: stopped); live handles are summed on read
        self._banked = dict.fromkeys(_COUNTERS, 0)
        self._checkout: asyncio.Queue | None = None
        self._executor = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._published_token: int | None = None
        #: monotonically increasing worker index (respawns/grows get fresh
        #: indices, so logs and crash messages never alias two lifetimes)
        self._next_index = 0
        #: in-progress retire shutdowns; stop() waits for these
        self._retire_futures: set = set()
        #: serializes fleet mutations (respawn / scale / swap) against each
        #: other — the supervisor's health and scale loops are separate
        #: tasks, and two concurrent spawns would race the roster
        self._fleet_lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # transport + cache counters
    # ------------------------------------------------------------------ #
    def _total(self, counter: str) -> int:
        return self._banked[counter] + sum(getattr(h, counter) for h in self._handles)

    def _forget(self, handles) -> None:
        """Drop ``handles`` from the roster, banking their counters."""
        for handle in handles:
            if handle in self._handles:
                self._handles.remove(handle)
                for counter in _COUNTERS:
                    self._banked[counter] += getattr(handle, counter)

    @property
    def ring_batches(self) -> int:  # type: ignore[override]
        return self._total("ring_batches")

    @property
    def pipe_batches(self) -> int:  # type: ignore[override]
        return self._total("pipe_batches")

    @property
    def cache_hits(self) -> int:  # type: ignore[override]
        return self._total("cache_hits")

    @property
    def cache_misses(self) -> int:  # type: ignore[override]
        return self._total("cache_misses")

    # ------------------------------------------------------------------ #
    # ring sizing
    # ------------------------------------------------------------------ #
    def _ring_geometry(self) -> tuple[int, int]:
        """Per-slot (request_bytes, response_bytes) for the served geometry.

        A batch or response that does not fit anyway (the ring refuses it)
        only costs that batch a trip down the pipe, never a wrong answer.
        """
        example = int(np.prod(self.input_shape, dtype=np.int64))
        request_bytes = 8 * self.max_batch_size * example
        if self.num_samples is not None:
            samples = self.num_samples
        else:
            model = getattr(self.engine, "model", None)
            samples = model.config.default_mc_samples if model is not None else 1
        # MC: (S, N, classes) float64; early-exit: (N, classes) + (N,) int64.
        # Sized for the larger of the two so one geometry serves both modes.
        classes = engine_num_classes(self.engine)
        response_bytes = 8 * self.max_batch_size * (max(samples, 1) * classes + 1)
        return request_bytes, response_bytes

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, executor) -> None:
        if self._checkout is not None:
            return
        self._executor = executor
        self._loop = asyncio.get_running_loop()
        # spawning + the ready handshake block on process startup; keep the
        # event loop responsive meanwhile
        await self._loop.run_in_executor(executor, self._start_sync)
        self._checkout = asyncio.Queue()
        for handle in self._handles:
            self._checkout.put_nowait(handle)

    def _spawn_worker(self, config: _WorkerConfig) -> _WorkerHandle:
        """Spawn one worker process (no ready-wait); blocking, off-loop."""
        ctx = multiprocessing.get_context(_MP_CONTEXT)
        ring = (
            BatchRing.create(1, *self._ring_geometry())
            if self.transport == "ring"
            else None
        )
        index = self._next_index
        self._next_index += 1
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                config,
                ring.manifest if ring is not None else None,
            ),
            daemon=True,
            name=f"repro-serving-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(
            index, process, parent_conn, ring, generation=self.generation
        )

    @staticmethod
    def _await_ready(handle: _WorkerHandle, deadline: float) -> None:
        """Block until the worker's ready handshake (or fail); off-loop."""
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not handle.conn.poll(remaining):
            raise RuntimeError(
                f"serving worker {handle.index} did not become ready in time"
            )
        msg = handle.conn.recv()  # EOFError if it died during import
        if msg[0] != "ready":  # pragma: no cover - protocol violation
            raise RuntimeError(f"unexpected handshake from worker: {msg!r}")

    def _current_config(self) -> _WorkerConfig:
        """The spawn config for the *current* engine + arena generation."""
        return _WorkerConfig(
            engine=self.engine,
            num_samples=self.num_samples,
            early_exit_threshold=self.early_exit_threshold,
            manifest=self._arena.manifest,
        )

    def _start_sync(self) -> None:
        params = list(engine_parameters(self.engine))
        arena = SharedParameterArena.create(params, generation=self.generation)
        self._arena = arena
        handles: list[_WorkerHandle] = []
        try:
            config = self._current_config()
            for _ in range(self.workers):
                handles.append(self._spawn_worker(config))
            deadline = time.monotonic() + _START_TIMEOUT_S
            for handle in handles:
                self._await_ready(handle, deadline)
        except BaseException:
            for handle in handles:
                handle.shutdown(timeout=1.0)
            self._arena = None
            arena.release()
            raise
        self._published_token = self.engine.weights_token()
        self._handles = handles

    def _spawn_ready_handle(self) -> _WorkerHandle:
        """Spawn + handshake one worker and register it; blocking, off-loop.

        Used by respawn (supervisor), grow (autoscaler) and generation
        swaps.  Registration happens *here*, in the worker thread — the
        handle joins the roster immediately and checkout enqueue is
        marshalled onto the event loop with ``call_soon_threadsafe`` — so
        a cancelled awaiting task can never orphan a spawned process:
        once this function returns, stop() knows about the worker.
        """
        handle = self._spawn_worker(self._current_config())
        try:
            self._await_ready(handle, time.monotonic() + self._respawn_wait)
        except BaseException:
            handle.shutdown(timeout=1.0)
            raise
        self._handles.append(handle)  # GIL-atomic; roster owns it now
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._enqueue_handle, handle)
        return handle

    def _enqueue_handle(self, handle: _WorkerHandle) -> None:
        """Event-loop callback: offer a freshly spawned worker for checkout."""
        if self._checkout is not None and handle.alive and not handle.retiring:
            self._checkout.put_nowait(handle)

    async def stop(self) -> None:
        if self._checkout is None and not self._handles:
            return
        self._checkout = None
        if self._retire_futures:
            # let in-progress drain-before-retire shutdowns finish first;
            # they run on the executor we are about to drop
            await asyncio.gather(*list(self._retire_futures), return_exceptions=True)
        loop = asyncio.get_running_loop()
        executor, self._executor = self._executor, None
        self._loop = None
        await loop.run_in_executor(executor, self._stop_sync)

    def _stop_sync(self) -> None:
        for handle in self._handles:
            handle.shutdown()
        self._forget(list(self._handles))
        if self._arena is not None:
            # detaches the parent's parameters back into private arrays and
            # unlinks the segment — the model stays fully usable afterwards
            self._arena.release()
            self._arena = None

    # ------------------------------------------------------------------ #
    # fleet surface (supervisor / autoscaler / generation swaps)
    # ------------------------------------------------------------------ #
    @property
    def current_workers(self) -> int:
        """Live, non-retiring workers (falls back to K when not serving)."""
        if self._checkout is None and not self._handles:
            return self.workers
        return sum(1 for h in self._handles if h.alive and not h.retiring)

    @property
    def alive_workers(self) -> int:
        """Workers whose *process* answers ``is_alive()`` right now.

        Stricter than :attr:`current_workers`: a silently dead worker
        stays on the roster (``h.alive``) until a liveness scan reaps it,
        but its process already reads dead here — this is what lets the
        ``/v1/health`` endpoint flip the moment a worker dies instead of
        one supervisor interval later.
        """
        if self._checkout is None and not self._handles:
            return self.workers
        return sum(
            1
            for h in self._handles
            if h.alive and not h.retiring and h.process.is_alive()
        )

    def _note_crash(self, handle: _WorkerHandle) -> None:
        """Count one worker death exactly once (batch path vs. health scan)."""
        if not handle.crash_counted:
            handle.crash_counted = True
            self.worker_crashes += 1

    def _check_in(self, handle: _WorkerHandle) -> None:
        """Return a worker after a batch: back to checkout, or retire it."""
        if handle.retiring:
            self._retire_handle(handle)
        elif self._checkout is not None:
            self._checkout.put_nowait(handle)

    def _retire_handle(self, handle: _WorkerHandle) -> None:
        """Drop a drained worker from the roster and shut it down off-loop."""
        self._forget([handle])
        if self._executor is None:  # stopping anyway; _stop_sync got it
            return
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(self._executor, handle.shutdown)
        self._retire_futures.add(fut)
        fut.add_done_callback(self._reap_retire_future)

    def _reap_retire_future(self, fut) -> None:
        self._retire_futures.discard(fut)
        if not fut.cancelled():
            fut.exception()  # consume; shutdown() failures are best-effort

    def _drain_idle_retirees(self) -> None:
        """Retire every *idle* retiring worker parked in the checkout queue.

        In-flight retirees are retired by their own check-in.  Dead poison
        tokens are preserved only in unsupervised mode, where parked
        waiters rely on them to observe a total-pool death.
        """
        if self._checkout is None:
            return
        keep: list[_WorkerHandle] = []
        while True:
            try:
                handle = self._checkout.get_nowait()
            except asyncio.QueueEmpty:
                break
            if handle.alive and handle.retiring:
                self._retire_handle(handle)
            elif handle.alive or not self.supervised:
                keep.append(handle)
        for handle in keep:
            self._checkout.put_nowait(handle)

    async def ensure_healthy(self) -> int:
        """Reap silently dead workers and respawn up to ``target_workers``.

        A worker that dies *between* batches never fails a pipe exchange,
        so only this liveness scan can find it.  In-flight handles are
        skipped — their own exchange surfaces the death — which keeps the
        scan from reaping a worker mid-drain.
        """
        if self._checkout is None:
            return 0
        async with self._fleet_lock:
            if self._checkout is None:  # stopped while waiting on the lock
                return 0
            loop = asyncio.get_running_loop()
            silent = [
                h
                for h in self._handles
                if h.alive and not h.in_flight and not h.process.is_alive()
            ]
            for handle in silent:
                self._note_crash(handle)
                # reap blocks (join + ring unlink); keep it off the loop
                await loop.run_in_executor(self._executor, handle.reap)
            # prune corpses (both silent deaths and batch-path reaps)
            self._forget([h for h in self._handles if not h.alive])
            respawned = 0
            while (
                sum(1 for h in self._handles if h.alive and not h.retiring)
                < self.target_workers
            ):
                if self._checkout is None or self._executor is None:
                    break
                await loop.run_in_executor(self._executor, self._spawn_ready_handle)
                respawned += 1
            self.workers_respawned += respawned
            return respawned

    async def scale_to(self, target: int) -> None:
        """Grow or shrink the live fleet to ``target`` (drain on shrink)."""
        target = max(1, int(target))
        if self._checkout is None:
            self.workers = self.target_workers = target
            return
        async with self._fleet_lock:
            self.target_workers = target
            live = [h for h in self._handles if h.alive and not h.retiring]
            if target == len(live):
                return
            loop = asyncio.get_running_loop()
            if target > len(live):
                for _ in range(target - len(live)):
                    await loop.run_in_executor(
                        self._executor, self._spawn_ready_handle
                    )
            else:
                for handle in live[target:]:
                    handle.retiring = True
                self._drain_idle_retirees()
            self.scale_events += 1

    async def swap_engine(self, engine) -> int:
        """Roll the fleet onto ``engine`` via a new arena generation.

        Weights **and shapes** may differ from the current engine.  The
        rollout is: build arena ``n+1`` → spawn a same-size cohort attached
        to it → mark the old cohort retiring (each finishes its in-flight
        batch, then shuts down) → release arena ``n`` once nothing reads
        it.  Requests keep flowing throughout; every response comes from a
        worker whose arena was complete and immutable at attach time, so
        no reader ever sees a torn update.
        """
        if self._checkout is None:
            self.engine = engine
            self.generation += 1
            return self.generation
        async with self._fleet_lock:
            loop = asyncio.get_running_loop()
            old_arena = self._arena
            old_cohort = [h for h in self._handles if h.alive and not h.retiring]
            params = list(engine_parameters(engine))
            new_gen = self.generation + 1
            new_arena = await loop.run_in_executor(
                self._executor,
                lambda: SharedParameterArena.create(params, generation=new_gen),
            )
            # from here on every spawn (including supervisor respawns)
            # attaches to generation n+1 with the new engine
            self.engine = engine
            self._arena = new_arena
            self.generation = new_gen
            self._published_token = engine.weights_token()
            for _ in range(max(len(old_cohort), 1)):
                await loop.run_in_executor(self._executor, self._spawn_ready_handle)
            for handle in old_cohort:
                handle.retiring = True
            self._drain_idle_retirees()
            # wait out the drain: in-flight old-generation workers retire
            # on check-in; alive flips false once shutdown() runs off-loop
            while any(h.alive for h in old_cohort) or self._retire_futures:
                self._drain_idle_retirees()
                await asyncio.sleep(0.01)
            if old_arena is not None:
                await loop.run_in_executor(self._executor, old_arena.release)
            return self.generation

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    async def run(self, seq: int, payloads: list) -> list[UncertaintyResult]:
        assert self._checkout is not None, "pool is not started"
        loop = asyncio.get_running_loop()
        token = self.engine.weights_token()
        if token != self._published_token:
            self._arena.publish()
            self._published_token = token
        while True:
            # fail fast once the whole pool is gone — without this check a
            # batch would park on the (then permanently empty) checkout
            # queue forever, wedging drain-on-stop along with it.  Under a
            # supervisor a transiently empty fleet is survivable: park on
            # checkout (bounded) until a respawn lands.
            if not any(h.alive for h in self._handles):
                if not self.supervised:
                    raise WorkerCrashed(
                        f"all {self.workers} serving worker processes have died"
                    )
                try:
                    handle = await asyncio.wait_for(
                        self._checkout.get(), self._respawn_wait
                    )
                except asyncio.TimeoutError:
                    if any(h.alive for h in self._handles):
                        continue  # respawn landed but was snatched; retry
                    raise WorkerCrashed(
                        f"all serving workers died and no respawn arrived "
                        f"within {self._respawn_wait}s"
                    ) from None
            else:
                handle = await self._checkout.get()
            if not handle.alive:
                if self.supervised:
                    # the supervisor owns recovery: swallow the stale token
                    # so the queue only ever hands out live workers
                    continue
                # a poison token from a total-pool death: pass the wake-up
                # on to any other parked waiter, then raise at the loop top
                self._checkout.put_nowait(handle)
                continue
            if handle.retiring:
                # drain-before-retire: a retiring worker takes no new work
                self._retire_handle(handle)
                continue
            fault = (
                self._fault_plan.take(seq) if self._fault_plan is not None else None
            )
            handle.in_flight = True
            try:
                result = await loop.run_in_executor(
                    self._executor, handle.execute, seq, token, payloads, fault
                )
            except _WorkerDied as exc:
                handle.in_flight = False
                self._note_crash(handle)
                # reap blocks (terminate + join); keep it off the event loop
                await loop.run_in_executor(self._executor, handle.reap)
                if not any(h.alive for h in self._handles) and not self.supervised:
                    # poison the queue so waiters parked in get() wake up
                    # and observe the total death instead of hanging
                    self._checkout.put_nowait(handle)
                    raise WorkerCrashed(
                        f"all {self.workers} serving worker processes have "
                        f"died (last: {exc})"
                    ) from exc
                continue  # retry the batch on a live sibling (or a respawn)
            except BaseException:
                handle.in_flight = False
                self._check_in(handle)
                raise
            handle.in_flight = False
            self._check_in(handle)
            return result
