"""Process backend: how a process replica is made, how a batch reaches it.

Thread replicas only scale while NumPy holds the GIL-released GEMMs long
enough to hide the Python glue around them; on small models the glue
dominates and K threads flatline near 1x.  This backend runs each replica
in its **own process**.  The fleet rules (checkout, crash-retry, scaling,
generation swaps, counters) are :mod:`repro.serving.workers.roster`'s; what
lives here is the part that is about processes:

* **Worker** (:func:`_worker_main`).  A spawned interpreter — never forked:
  the parent runs an asyncio loop plus BLAS threads — that unpickles an
  engine whose shared parameters serialize as ``(segment, offset, shape)``
  descriptors (kilobytes, not weights; unpickling an engine *is*
  ``replicate()`` across the process boundary) and serves request frames
  until told to stop.  Startup costs an interpreter + imports per worker,
  amortised over a serving lifetime.
* **One exchange** (:class:`_RingHandle`).  Each worker owns a two-slot
  shared-memory :class:`~repro.serving.workers.ring.BatchRing` and the whole
  exchange runs on the event loop.  The parent writes the request rows
  straight into a free slot and sends a ``("ring", seq, token, slot, fault)``
  doorbell down the pipe; the worker reads the batch as a zero-copy view,
  hands :func:`~repro.serving.workers.base.compute_batch_array` the same
  ``(N, *input_shape)`` float64 array a thread replica gets (so responses
  are bit-identical across backends), writes the result arrays into the
  slot's response region and answers ``("ok", delta, (slot, layout))``; a
  loop reader on the pipe wakes the parent, which assembles the results
  from the slot before it hands the slot on.  The channel carries inputs
  and probabilities only, never model state.  No thread, no polling
  interval: the worker's death is the pipe's EOF (and, belt and braces,
  its ``process.sentinel``), watched by the same reader.  Every reply
  carries ``delta``, what the worker counted since its previous reply —
  activation-cache hits and misses, the nanoseconds inside this batch out
  of the nanoseconds since that reply (the pool's ``busy_share``) —
  banked per handle so the totals survive the worker.
* **The batch geometry is a contract.**  The pool knows the largest batch,
  the example shape, the sample count and the class count, and ``submit()``
  rejects every other shape and dtype, so the slots are sized once, exactly
  (:meth:`ProcessWorkerPool._ring_geometry`), and every batch and response
  fits by construction.  One that does not fit anyway fails that batch
  alone, loudly — a ``ValueError`` naming the capacity and the need, from
  the parent's staging or through the worker's error reply — while the
  worker, its slot and the batches behind it carry on.
* **Two slots, because one leaves the worker waiting.**  With one slot the
  worker sat idle from its reply until the parent had read it, assembled
  and resolved the results, collected the next batch, staged it and rung —
  about a third of its time under a flood.  With two, batch N + 1 is
  staged and its doorbell already in the pipe while N computes (the
  paper's ping-pong buffers, in software).  Who owns a slot when is
  :class:`_RingHandle`'s rule: an exchange keeps its slot until its reply
  has been read — also after its batch was cancelled — replies come in
  doorbell order, and a death ends every queued exchange once
  (:class:`~repro.serving.workers.roster.ReplicaDied`; the roster retries
  each batch on a sibling or a respawn, and reaping the worker unlinks its
  ring segment with it).
* **Placement.**  The reply's write wakes the parent's loop thread, and
  the kernel likes to run a woken thread on the waker's CPU — where it
  preempts the worker for the whole read → assemble → resolve → collect →
  stage → doorbell chain.  So where ``os.sched_setaffinity`` exists and
  the fleet is smaller than the CPU set ``start`` found the loop thread
  allowed on, each worker is given one CPU of that set (the least-loaded
  one, never the first: a respawn lands where its predecessor was, and so
  does the cohort of a swap when no other CPU is free), which it applies
  to itself before it reports ready, and ``start`` narrows the *loop
  thread's* mask to the CPUs no worker owns (the affinity call is per
  thread, so it runs on the loop, not where workers are spawned); ``stop``
  puts back the mask ``start`` found.  Workers made later — by
  ``scale_to``, or by a swap on a host with CPUs to spare — are placed the
  same way, but the loop thread keeps the mask chosen at ``start``.  On
  any other host, or with at least as many workers as CPUs, no mask is
  touched; a worker that cannot pin itself says so in its ready frame and
  serves unpinned.
* **Generations** (:class:`ProcessWorkerPool`).  What one generation's
  workers share is a :class:`~repro.nn.shm.SharedParameterArena`: built at
  ``start`` (every ``Parameter`` value moves into one segment), succeeded by
  a fresh arena at ``swap_engine`` — weights **and shapes** may differ; a
  generation's segment is immutable-in-shape for its whole lifetime — and
  released after the old cohort has drained (parameters return to private
  storage).
* **Staleness.**  Weight mutations in the parent (optimizer steps,
  ``assign``, quantization) write straight into the shared segment, so
  workers always *read* current bytes; the ``weights_token`` published
  with each batch tells a worker when the weights changed so it re-syncs
  its local version counters from the arena and drops its activation
  caches — the same ``weights_version`` rule that keeps in-process caches
  honest.  Updates are not transactional against in-flight batches:
  quiesce submissions around an update if a batch must never mix old and
  new weights.

A :class:`~repro.serving.fleet.FaultPlan` injection reaches the exchange as
``fault``: the parent kills the victim before the request frame
(``pre_doorbell``) or poisons the frame so the worker traps and dies at the
requested lifecycle point (``mid_compute``, ``post_response``).  Every
point rides the same exchange as a production batch.

``start`` leaves one ``logging`` record naming the placement (``worker 0 →
cpu 1, loop → {0}``) on this module's logger and a worker that could not
pin itself one warning; crashes, respawns, scaling and generation swaps are
logged by the roster.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import multiprocessing
import os
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ...inference.engine import InferenceEngine
from ...nn.shm import ArenaManifest, SharedParameterArena
from ...uncertainty.metrics import UncertaintyResult
from .base import (
    RESPONSE_LAYOUTS,
    BatchOutput,
    assemble_results,
    compute_batch_array,
    response_specs,
)
from .ring import BatchRing, RingManifest, payload_bytes
from .roster import Replica, ReplicaDied, WorkerPool

__all__ = ["ProcessWorkerPool"]

LOG = logging.getLogger(__name__)

#: spawn, never fork: the parent runs an asyncio loop plus BLAS threads
_MP_CONTEXT = "spawn"
#: slots per worker ring: one batch computing, one staged behind it
_SLOTS = 2


@dataclass
class _WorkerConfig:
    """Everything a worker needs, pickled once at spawn."""

    engine: InferenceEngine  # shm-backed parameters
    num_samples: int | None
    early_exit_threshold: float | None
    manifest: ArenaManifest


def _worker_main(
    conn, config: _WorkerConfig, ring_manifest: RingManifest, cpu: int | None
) -> None:
    """Worker process entry point: serve batches until told to stop."""
    engine = config.engine
    arena = SharedParameterArena.attached(
        config.manifest, list(engine.model.parameters())
    )
    arena.refresh()
    ring = BatchRing.attached(ring_manifest)
    seen_token = None
    # cache counters already reported to the parent; each reply carries the
    # delta since the previous one, so parent totals survive worker deaths
    seen_hits = seen_misses = 0
    pin_error = None
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError as exc:
            pin_error = repr(exc)  # the parent logs it; serve unpinned
    try:
        conn.send(("ready", os.getpid(), pin_error))
        replied = time.perf_counter_ns()
        while True:
            msg = conn.recv()
            started = time.perf_counter_ns()
            if msg[0] == "stop":
                break
            _, seq, token, slot, fault = msg
            try:
                batch = ring.read_request(slot)
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
                # the results go into the slot the request came in
                layout, arrays = out.arrays()
                ring.write_response(slot, arrays)
            except Exception as exc:  # the batch failed; the worker lives on
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            else:
                hits, misses = engine.cache_stats()
                now = time.perf_counter_ns()
                # cache traffic, then the time inside this batch out of the
                # time since the previous reply (send and recv included)
                delta = (
                    hits - seen_hits,
                    misses - seen_misses,
                    now - started,
                    now - replied,
                )
                seen_hits, seen_misses, replied = hits, misses, now
                conn.send(("ok", delta, (slot, layout)))
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


class _Exchange(NamedTuple):
    """One batch's hold on a ring handle: a slot, and where its results go."""

    #: the ring slot the exchange owns until it ends
    slot: int
    #: the batch's results; cancelled when nobody is left to take them
    results: asyncio.Future


class _RingHandle(Replica):
    """Parent-side endpoint of one worker: its process, pipe and ring.

    The exchange runs on the event loop.  An exchange owns one of the
    ring's slots from before its rows are staged until its reply has been
    read, whoever reads it: the batch that asked, or, once that batch was
    cancelled, the loop on its own, which throws the reply away.
    ``_exchanges`` holds the exchanges whose doorbell is out, in doorbell
    order, which is the order the serial worker answers in.  Exactly one
    party ends an exchange: the batch itself up to its doorbell,
    :meth:`_finish` from then on — and ``_finish`` only ever takes the
    queue's head.  ``_lock`` is held while any slot is owned: it is what
    ``shutdown``'s stop frame and closing the channel wait on.
    """

    def __init__(self, index: int, process, conn, cpu, ring: BatchRing) -> None:
        super().__init__()
        self.index = index
        self.process = process
        self.conn = conn
        #: the CPU the worker pinned itself to; ``None`` when it runs unpinned
        self.cpu = cpu
        #: this worker's ring, unlinked with the channel
        self.ring = ring
        self.depth = ring.slots
        #: reused in the order they were freed, so the slot a waiting batch
        #: gets does not depend on how many replies were read before it woke
        self._free_slots = deque(range(self.depth))
        #: slots owned right now — exchanges staging or in flight
        self._owned = 0
        self._exchanges: deque[_Exchange] = deque()
        #: resolves when a slot is handed back; ``None`` when nobody waits
        self._turn: asyncio.Future | None = None
        #: (loop, fds) while loop readers wait for the replies in flight
        self._watched: tuple | None = None

    def __repr__(self) -> str:
        return (
            f"worker {self.index} (pid {self.process.pid}, "
            f"exit code {self.process.exitcode})"
        )

    @property
    def replies_in_flight(self) -> int:
        """Doorbells rung whose reply has yet to be read off the pipe."""
        return len(self._exchanges)

    def _kill(self) -> None:
        self.process.kill()
        self.process.join(5.0)

    def _stage(self, slot: int, payloads: list) -> None:
        """Write the batch's rows straight into its ring slot."""
        dest = self.ring.stage_request(slot, (len(payloads), *payloads[0].shape))
        for i, payload in enumerate(payloads):
            dest[i] = payload

    async def serve(
        self, off_loop, seq: int, token: int, payloads: list, fault: str | None
    ) -> list[UncertaintyResult]:
        """One request/response exchange, never leaving the loop thread.

        Rows into a free slot, doorbell down the pipe — behind the batch the
        worker is computing, if there is one — and the loop's readers on
        the pipe for the replies.
        """
        loop = asyncio.get_running_loop()
        while self._owned >= self.depth:
            # every slot is taken: the reply to a cancelled batch keeps its
            # slot until it has been read
            await self._next_turn(loop)
        exchange = _Exchange(self._take_slot(), loop.create_future())
        try:
            self._stage(exchange.slot, payloads)
            if fault == "pre_doorbell":
                # FaultPlan (test-only): deterministic crash *between*
                # staging and the doorbell — the batch dies holding its
                # ring slot and must be re-staged on a sibling, and so must
                # the batch the worker was computing ahead of it
                await off_loop(self._kill)
            self.conn.send(("ring", seq, token, exchange.slot, fault))
        except BaseException as exc:
            # not in the queue yet, so nobody else ends (or ended) this one
            self._hand_back(exchange.slot)
            if isinstance(exc, OSError):  # the doorbell met a closed pipe
                raise ReplicaDied(f"worker {self.index}: {exc!r}") from None
            raise
        # the doorbell is out: from here the exchange ends itself (_finish),
        # and cancelling this batch only means nobody is left to take the
        # results
        self._exchanges.append(exchange)
        self.ring_batches += 1
        self._watch(loop)
        return await exchange.results

    async def _next_turn(self, loop) -> None:
        if self._turn is None:
            self._turn = loop.create_future()
        # shared by every waiter: one cancelled batch must not cancel it
        await asyncio.shield(self._turn)

    def _take_slot(self) -> int:
        if not self._owned and not self._lock.acquire(blocking=False):
            # only shutdown() holds the lock of an idle handle
            raise ReplicaDied(f"worker {self.index} is being shut down")
        self._owned += 1
        return self._free_slots.popleft()

    def _hand_back(self, slot: int) -> None:
        self._free_slots.append(slot)
        self._owned -= 1
        if not self._owned:
            self._lock.release()
        turn, self._turn = self._turn, None
        if turn is not None:
            turn.set_result(None)

    def _watch(self, loop) -> None:
        """Wake on a reply (pipe readable) or the worker's death (EOF, sentinel).

        One pair of readers serves every reply in flight: registered with
        the first doorbell, removed when the last reply has been read.
        """
        if self._watched is None:
            pipe, sentinel = fds = (self.conn.fileno(), self.process.sentinel)
            loop.add_reader(pipe, self._on_readable, True)
            loop.add_reader(sentinel, self._on_readable, False)
            self._watched = (loop, fds)

    def _unwatch(self) -> None:
        loop, fds = self._watched
        self._watched = None
        for fd in fds:
            loop.remove_reader(fd)

    def _on_readable(self, pipe_ready: bool) -> None:
        try:
            if not pipe_ready and not self.conn.poll(0):
                # woken by the sentinel alone: nothing to read, not even EOF
                raise EOFError(f"exited with code {self.process.exitcode}")
            # a reply is a header of a few dozen bytes, written whole
            reply = self.conn.recv()
        except Exception as exc:  # OSError / EOFError: the worker is gone
            # the pipe is lost: every exchange in flight ends on this error
            self._unwatch()
            while self._exchanges:
                self._finish(error=exc)
            return
        self._finish(reply)
        if not self._exchanges:
            self._unwatch()

    def _finish(self, reply=None, error=None) -> None:
        """On the loop: the head exchange's reply has been read.

        Results out, slot free.  The results are assembled before the slot
        is handed on (it is still this exchange's), and the counters kept,
        even when the batch was cancelled and nobody takes them.
        """
        exchange = self._exchanges.popleft()
        outcome: list | BaseException
        try:
            if error is not None:
                raise error
            slot, layout = self._accept(reply)
            if slot != exchange.slot:  # replies come in doorbell order
                raise RuntimeError(
                    f"serving worker {self.index} answered slot {slot}, "
                    f"slot {exchange.slot} was due"
                )
            # the arrays are views of the slot; the results alias nothing
            arrays = self.ring.read_response(slot)
            outcome = assemble_results(BatchOutput.from_arrays(layout, arrays))
        except (OSError, EOFError) as exc:
            # OSError covers BrokenPipeError/ConnectionResetError and also
            # "handle is closed": teardown may close the pipe under a
            # cancelled batch's exchange
            outcome = ReplicaDied(f"worker {self.index}: {exc!r}")
        except Exception as exc:
            outcome = exc
        self._hand_back(exchange.slot)
        results = exchange.results
        if results.done():  # cancelled: the reply is read and thrown away
            return
        if isinstance(outcome, BaseException):
            results.set_exception(outcome)
        else:
            results.set_result(outcome)

    def _accept(self, reply: tuple):
        """The body of an ``"ok"`` reply; raises what an ``"error"`` one reports.

        The worker's cache traffic and busy time are accumulated from the
        per-reply deltas, so the totals survive its death.
        """
        if reply[0] == "error":
            raise RuntimeError(f"serving worker {self.index} failed: {reply[1]}")
        _, (hits, misses, compute_ns, cycle_ns), body = reply
        self.cache_hits += hits
        self.cache_misses += misses
        self.compute_ns += compute_ns
        self.cycle_ns += cycle_ns
        return body

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def _close_channel(self, owned: bool, timeout: float = 5.0) -> None:
        """Close the pipe and unlink the ring once no exchange uses them.

        The worker is gone by now, so the exchanges still in flight
        (cancelled batches') end on EOF within a loop turn; closing under
        them would strand their readers on fd numbers the next spawn reuses.
        """
        owned = owned or self._lock.acquire(timeout=timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.ring.release()
        if owned:
            self._lock.release()

    def reap(self) -> None:
        self.alive = False
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self._close_channel(owned=False)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit, escalating to terminate."""
        if not self.alive:
            return
        self.alive = False
        # the stop frame must not interleave with a request frame, nor the
        # close with a reply still in flight (a cancelled batch's): wait for
        # every exchange to end, then keep the handle until it is closed.
        # Bounded wait: a wedged exchange falls through to terminate below.
        owned = self._lock.acquire(timeout=timeout)
        if owned and self.process.is_alive():
            try:
                self.conn.send(("stop",))
            except OSError:
                pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)
        self._close_channel(owned, timeout)


class ProcessWorkerPool(WorkerPool):
    """K spawned worker processes over one shared-memory parameter arena."""

    depth = _SLOTS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: the CPUs ``start`` found this process allowed on, ascending;
        #: ``None`` while stopped and where the host cannot place threads
        self._allowed: list[int] | None = None
        #: whether ``start`` narrowed the loop thread's mask (``stop`` undoes it)
        self._loop_narrowed = False
        #: the (arena, weights token) pair last published to the workers
        self._published: tuple | None = None
        #: worker indices never repeat (respawns and grows get fresh ones),
        #: so logs and crash messages never alias two lifetimes
        self._indices = itertools.count()

    # ------------------------------------------------------------------ #
    # placement: a CPU per worker, the loop thread on the rest
    # ------------------------------------------------------------------ #
    async def start(self, executor) -> None:
        if self._checkout is not None:
            return
        if hasattr(os, "sched_setaffinity"):
            self._allowed = sorted(os.sched_getaffinity(0))
        await super().start(executor)  # a start that fails has stopped the pool
        placed = {h.index: h.cpu for h in self._replicas if h.cpu is not None}
        if not placed:
            return
        # the affinity call acts on the calling thread, so this has to run
        # here, on the loop thread — not where the workers were spawned
        loop_cpus = set(self._allowed) - set(placed.values())
        try:
            os.sched_setaffinity(0, loop_cpus)
        except OSError as exc:
            LOG.warning("the loop thread keeps its CPUs %s (%r)", self._allowed, exc)
        else:
            self._loop_narrowed = True
        LOG.info(
            "placement: %s, loop → %s",
            ", ".join(f"worker {i} → cpu {cpu}" for i, cpu in placed.items()),
            set(os.sched_getaffinity(0)),
        )

    async def stop(self) -> None:
        try:
            await super().stop()
        finally:
            if self._loop_narrowed:
                os.sched_setaffinity(0, self._allowed)
                self._loop_narrowed = False
            self._allowed = None

    def _pick_cpu(self, spawning: list) -> int | None:
        """The next worker's CPU, or ``None``: no spare CPU, so no placement.

        The least-loaded of the allowed CPUs but the first, which is the
        loop thread's for good — so a respawn lands where its predecessor
        was.
        """
        allowed = self._allowed
        if allowed is None or self.target_workers >= len(allowed):
            return None
        load = Counter(h.cpu for h in [*self._replicas, *spawning] if h.alive)
        return min(allowed[1:], key=lambda cpu: load[cpu])

    # ------------------------------------------------------------------ #
    # generations: one shared-memory parameter arena each
    # ------------------------------------------------------------------ #
    def _open_generation(
        self, engine: InferenceEngine, generation: int
    ) -> SharedParameterArena:
        return SharedParameterArena.create(
            list(engine.model.parameters()), generation=generation
        )

    def _close_generation(self, arena: SharedParameterArena | None) -> None:
        if arena is not None:
            # detaches the parent's parameters back into private arrays and
            # unlinks the segment — the model stays fully usable afterwards
            arena.release()

    def _weights_token(self) -> int:
        token = self.engine.weights_token()
        if self._published != (self._shared, token):
            self._shared.publish()
            self._published = (self._shared, token)
        return token

    # ------------------------------------------------------------------ #
    # replicas: spawn + ready handshake
    # ------------------------------------------------------------------ #
    def _ring_geometry(self) -> tuple[int, int]:
        """Per-slot (request_bytes, response_bytes), exact for the served geometry.

        Sized for the larger of the two response layouts at the largest
        batch, so one geometry serves both modes.
        """
        rows = self.max_batch_size
        model = self.engine.model
        samples = self.num_samples or model.config.default_mc_samples
        classes = model.num_classes
        return (
            payload_bytes([((rows, *self.input_shape), np.float64)]),
            max(
                payload_bytes(response_specs(layout, samples, rows, classes))
                for layout in RESPONSE_LAYOUTS
            ),
        )

    def _spawn_worker(self, config: _WorkerConfig, cpu: int | None) -> _RingHandle:
        """Spawn one worker process over its own ring (no ready-wait)."""
        ctx = multiprocessing.get_context(_MP_CONTEXT)
        ring = BatchRing.create(_SLOTS, *self._ring_geometry())
        index = next(self._indices)
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, config, ring.manifest, cpu),
            daemon=True,
            name=f"repro-serving-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _RingHandle(index, process, parent_conn, cpu, ring)

    def _make_replicas(self, count: int, timeout: float) -> list[_RingHandle]:
        """Spawn ``count`` workers over the current arena, then await them all."""
        config = _WorkerConfig(
            engine=self.engine,
            num_samples=self.num_samples,
            early_exit_threshold=self.early_exit_threshold,
            manifest=self._shared.manifest,
        )
        handles: list[_RingHandle] = []
        try:
            for _ in range(count):
                handles.append(self._spawn_worker(config, self._pick_cpu(handles)))
            deadline = time.monotonic() + timeout
            for handle in handles:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not handle.conn.poll(remaining):
                    raise RuntimeError(
                        f"serving worker {handle.index} did not become ready in time"
                    )
                msg = handle.conn.recv()  # EOFError if it died during import
                if msg[0] != "ready":  # pragma: no cover - protocol violation
                    raise RuntimeError(f"unexpected handshake from worker: {msg!r}")
                if msg[2] is not None:
                    LOG.warning(
                        "worker %d could not take cpu %d (%s); it serves unpinned",
                        handle.index,
                        handle.cpu,
                        msg[2],
                    )
                    handle.cpu = None
        except BaseException:
            for handle in handles:
                handle.shutdown(timeout=1.0)
            raise
        return handles
