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
* **Exchange** (:class:`_WorkerHandle`, the roster's replica).  Two request
  frames.  With ``transport="ring"`` (the default) each worker owns a
  two-slot shared-memory :class:`~repro.serving.workers.ring.BatchRing`
  sized from the pool's batch geometry, and the whole exchange runs on the
  event loop: the parent writes the request rows straight into a free slot
  and sends a ``("ring", seq, token, slot, fault)`` doorbell, the worker
  reads the batch as a zero-copy view, writes the result arrays into the
  slot's response region and answers ``("ok_ring", slot, mode, delta)``; a
  loop reader on the pipe wakes the parent, which assembles the results
  from the slot before it hands the slot on.  No thread, no polling
  interval: the worker's death is the pipe's EOF (and, belt and braces,
  its ``process.sentinel``), watched by the same reader.  The other frame is
  ``("batch", seq, token, array, fault)`` — the batch ``np.stack``-ed in
  the parent and pickled down the pipe, answered by an ``("ok", delta)``
  header and then the pickled result: the whole protocol under
  ``transport="pipe"`` and the fallback whenever the ring refuses a batch
  (``stage_request`` / ``write_response`` returning no-fit).  Same array
  layout either way, so both frames feed
  :func:`~repro.serving.workers.base.compute_batch_array` bit-identical
  operands; the channel carries inputs and probabilities only, never model
  state.  ``delta`` is what the worker counted since its previous reply:
  activation-cache hits and misses, and the nanoseconds it spent inside
  this batch out of the nanoseconds since that reply (the pool's
  ``busy_share``), banked per handle so the totals survive the worker.
* **Two slots, because one leaves the worker waiting.**  With one slot the
  worker sat idle from its reply until the parent had read it, assembled
  and resolved the results, collected the next batch, staged it and rung —
  about a third of its time under a flood.  With two, batch N + 1 is
  staged and its doorbell already in the pipe while N computes, so the
  worker goes from ``send`` straight into the next request (the paper's
  ping-pong buffers, in software).  Who owns a slot when: an exchange takes
  a free slot before staging and keeps it until its reply has been read
  and its results assembled — by the batch, or, once that batch was
  cancelled, by the loop alone, which throws the reply away — and only
  then is the slot (or ``shutdown``'s stop frame, once both are back)
  next.  The worker is serial, so replies come in doorbell order: the
  handle keeps its exchanges in a queue, every reply names its slot and is
  checked against the queue's head, one pair of loop readers is registered
  exactly while ring replies are due, and a death ends every queued
  exchange once (:class:`~repro.serving.workers.roster.ReplicaDied`; the
  roster retries each batch on a sibling or a respawn, and reaping the
  worker unlinks its ring segment with it).  A batch killed between
  staging and doorbell is not in the queue yet and ends itself.
* **Frames of unbounded size take the pipe alone.**  The pickled
  ``"batch"`` request and a result that outgrew its slot may be of any
  size, so they are sent and received on the executor, never on the loop —
  which is why a pickled result is announced by a small header.  Such a
  frame waits until it is the handle's only exchange before it goes out,
  and no doorbell is rung while a thread is using the pipe; an overflow
  whose successor was rung before it showed is read with the readers
  removed, and they return for the successor's reply afterwards.
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
``fault``: the parent kills the victim before the doorbell
(``pre_doorbell``) or poisons the frame so the worker traps and dies at the
requested lifecycle point (``mid_compute``, ``post_response``).  Every
point rides the same exchange as a production batch.

A ring → pipe refusal leaves one ``logging`` record per worker on this
module's logger, ``start`` one naming the placement (``worker 0 → cpu 1,
loop → {0}``) and a worker that could not pin itself one warning; crashes,
respawns, scaling and generation swaps are logged by the roster.
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

from ...nn.shm import ArenaManifest, SharedParameterArena
from ...uncertainty.metrics import UncertaintyResult
from .base import (
    BatchOutput,
    assemble_results,
    compute_batch_array,
    engine_num_classes,
    engine_parameters,
)
from .ring import BatchRing, RingManifest
from .roster import Replica, ReplicaDied, WorkerPool

__all__ = ["ProcessWorkerPool"]

LOG = logging.getLogger(__name__)

#: spawn, never fork: the parent runs an asyncio loop plus BLAS threads
_MP_CONTEXT = "spawn"
#: slots per worker ring: one batch computing, one staged behind it
_SLOTS = 2

#: response modes on the ring acknowledgement
_MODE_MC = 0  # one array: sample_probs (S, N, classes)
_MODE_EARLY_EXIT = 1  # two arrays: probs (N, classes), exit_indices (N,)


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
    conn, config: _WorkerConfig, ring_manifest: RingManifest | None, cpu: int | None
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
                mode, arrays = _batch_output_arrays(out)
                ringed = kind == "ring" and ring.write_response(payload, arrays)
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
                if ringed:
                    conn.send(("ok_ring", payload, mode, delta))
                else:
                    # pipe frame, or the response outgrew the slot: a small
                    # header first, so the parent's loop never reads a frame
                    # of unbounded size, then the result itself
                    conn.send(("ok", delta))
                    conn.send(out)
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
    """One batch's hold on a handle: a place, and where its results go."""

    #: the ring slot the exchange owns until it ends (``None``: no ring)
    slot: int | None
    #: the batch's results; cancelled when nobody is left to take them
    results: asyncio.Future


class _WorkerHandle(Replica):
    """Parent-side endpoint of one worker process.

    An exchange owns one of the handle's ``depth`` places — a ring slot, or
    the whole pipe for a frame of unbounded size — from before its request
    frame until its reply has been read, whoever reads it: the batch that
    asked, or, once that batch was cancelled, the loop on its own, which
    throws the reply away.  ``_exchanges`` holds the exchanges whose
    request frame is out, in doorbell order, which is the order the serial
    worker answers in.  Exactly one party ends an exchange: the batch
    itself up to its doorbell, :meth:`_finish` from then on — and
    ``_finish`` only ever takes the queue's head.  ``_lock`` is held while
    any place is owned: it is the side an executor thread can wait on
    (``shutdown``'s stop frame, closing the channel).
    """

    def __init__(
        self, index: int, process, conn, ring: BatchRing | None, cpu: int | None
    ) -> None:
        super().__init__()
        self.index = index
        self.process = process
        self.conn = conn
        #: this worker's ring, one slot per place; ``None`` under
        #: ``transport="pipe"``, where the pipe is the handle's one place
        self.ring = ring
        self.depth = ring.slots if ring is not None else 1
        #: the CPU the worker pinned itself to; ``None`` when it runs unpinned
        self.cpu = cpu
        self._free_slots = list(range(self.depth)) if ring is not None else []
        #: places owned right now — exchanges staging, in flight, or waiting
        #: for the pipe; ``_lock`` is held while this is non-zero
        self._owned = 0
        self._exchanges: deque[_Exchange] = deque()
        #: frames of unbounded size that have, or wait for, the pipe to
        #: themselves; no doorbell is rung while there is one
        self._unbounded = 0
        #: resolves when a place is handed back; ``None`` when nobody waits
        self._turn: asyncio.Future | None = None
        #: (loop, fds) while loop readers wait for the replies in flight
        self._watched: tuple | None = None
        #: the first ring -> pipe refusal is logged, the rest only counted
        self._refusal_logged = False

    def __repr__(self) -> str:
        return (
            f"worker {self.index} (pid {self.process.pid}, "
            f"exit code {self.process.exitcode})"
        )

    @property
    def replies_in_flight(self) -> int:
        """Request frames sent whose reply has yet to be read off the pipe."""
        return len(self._exchanges)

    def _stage(self, slot: int | None, payloads: list) -> bool:
        """Write the batch into its ring slot; ``False`` = ship it by pipe."""
        if slot is None:
            return False
        dest = self.ring.stage_request(slot, (len(payloads), *payloads[0].shape))
        if dest is None:  # does not fit the slot, or the ring is released
            self._note_refusal("request")
            return False
        for i, payload in enumerate(payloads):
            dest[i] = payload
        return True

    def _note_refusal(self, leg: str) -> None:
        if not self._refusal_logged:
            self._refusal_logged = True
            LOG.warning(
                "worker %d: the ring refused a %s, it travels by pipe "
                "(further refusals are only counted)",
                self.index,
                leg,
            )

    async def serve(
        self, off_loop, seq: int, token: int, payloads: list, fault: str | None
    ) -> list[UncertaintyResult]:
        """One request/response exchange, awaited on the event loop.

        The ring path never leaves the loop thread: rows into a free slot,
        doorbell down the pipe — behind the batch the worker is computing,
        if there is one — and the loop's readers on the pipe for the
        replies.  Frames of any size — the pickled ``"batch"`` request, a
        result that outgrew the slot — are sent and received on the
        executor, with the pipe to themselves.
        """
        loop = asyncio.get_running_loop()
        while self._unbounded or self._owned >= self.depth:
            # every place is taken (the reply to a cancelled batch keeps its
            # slot until it has been read), or a frame of unbounded size has
            # the pipe: neither a slot nor the pipe is this batch's yet
            await self._next_turn(loop)
        exchange = _Exchange(self._take_place(), loop.create_future())
        staged = True  # until the ring says otherwise: see the except below
        try:
            staged = self._stage(exchange.slot, payloads)
            if not staged:
                # the frame may be of any size: nothing is staged behind it
                # and it waits until the replies ahead of it have been read
                self._unbounded += 1
                while self._owned > 1:
                    await self._next_turn(loop)
            if fault == "pre_doorbell":
                # FaultPlan (test-only): deterministic crash *between*
                # staging and the doorbell — the batch dies holding its
                # ring slot and must be re-staged on a sibling, and so must
                # the batch the worker was computing ahead of it
                await off_loop(self._kill)
            if staged:
                self.conn.send(("ring", seq, token, exchange.slot, fault))
            else:
                frame = ("batch", seq, token, np.stack(payloads), fault)
                call = off_loop(self._pipe_exchange, frame)
        except BaseException as exc:
            # not in the queue yet, so nobody else ends (or ended) this one
            if not staged:
                self._unbounded -= 1
            self._hand_back(exchange.slot)
            if isinstance(exc, OSError):  # the doorbell met a closed pipe
                raise ReplicaDied(f"worker {self.index}: {exc!r}") from None
            raise
        # the request frame is out: from here the exchange ends itself
        # (_finish), and cancelling this batch only means nobody is left to
        # take the results
        self._exchanges.append(exchange)
        if staged:
            self.ring_batches += 1
            self._watch(loop, off_loop)
        else:
            self.pipe_batches += 1
            self._finish_after(call, loop, off_loop)
        return await exchange.results

    async def _next_turn(self, loop) -> None:
        if self._turn is None:
            self._turn = loop.create_future()
        # shared by every waiter: one cancelled batch must not cancel it
        await asyncio.shield(self._turn)

    def _take_place(self) -> int | None:
        if not self._owned and not self._lock.acquire(blocking=False):
            # only shutdown() holds the lock of an idle handle
            raise ReplicaDied(f"worker {self.index} is being shut down")
        self._owned += 1
        return self._free_slots.pop() if self.ring is not None else None

    def _hand_back(self, slot: int | None) -> None:
        if slot is not None:
            self._free_slots.append(slot)
        self._owned -= 1
        if not self._owned:
            self._lock.release()
        turn, self._turn = self._turn, None
        if turn is not None:
            turn.set_result(None)

    def _kill(self) -> None:
        self.process.kill()
        self.process.join(5.0)

    def _pipe_exchange(self, frame: tuple) -> tuple:
        """Blocking, off-loop: a frame of any size down, its reply back."""
        self.conn.send(frame)
        return self._recv_result(self.conn.recv())

    def _recv_result(self, reply: tuple) -> tuple:
        """Blocking, off-loop: the pickled result an ``"ok"`` header announces."""
        return reply, (self.conn.recv() if reply[0] == "ok" else None)

    def _finish_after(self, call: asyncio.Future, loop, off_loop) -> None:
        """End the head exchange when its executor ``call`` returns.

        Nobody awaits the call.  While it runs the pipe is its own: no
        reader is registered and ``_unbounded`` keeps new doorbells out.
        """

        def done(call: asyncio.Future) -> None:
            self._unbounded -= 1
            error = call.exception()
            if error is not None:
                self._fail_all(error)
                return
            self._finish(*call.result())
            if self._exchanges:  # rung before the result outgrew its slot
                self._watch(loop, off_loop)

        call.add_done_callback(done)

    def _watch(self, loop, off_loop) -> None:
        """Wake on a reply (pipe readable) or the worker's death (EOF, sentinel).

        One pair of readers serves every ring reply in flight: registered
        with the first doorbell, removed when the last reply has been read.
        """
        if self._watched is None:
            pipe, sentinel = fds = (self.conn.fileno(), self.process.sentinel)
            loop.add_reader(pipe, self._on_readable, off_loop, True)
            loop.add_reader(sentinel, self._on_readable, off_loop, False)
            self._watched = (loop, fds)

    def _unwatch(self):
        loop, fds = self._watched
        self._watched = None
        for fd in fds:
            loop.remove_reader(fd)
        return loop

    def _on_readable(self, off_loop, pipe_ready: bool) -> None:
        try:
            if not pipe_ready and not self.conn.poll(0):
                # woken by the sentinel alone: nothing to read, not even EOF
                raise EOFError(f"exited with code {self.process.exitcode}")
            # a ring reply is a header of a few dozen bytes, written whole
            reply = self.conn.recv()
        except Exception as exc:  # OSError / EOFError: the worker is gone
            self._fail_all(exc)
            return
        if reply[0] == "ok":
            # the result outgrew the slot and follows as a pickled frame of
            # any size, maybe still being written: read it off the loop,
            # and ring no doorbell while a thread is using the pipe
            self._note_refusal("response")
            self._unbounded += 1
            loop = self._unwatch()
            self._finish_after(off_loop(self._recv_result, reply), loop, off_loop)
            return
        self._finish(reply)
        if not self._exchanges:
            self._unwatch()

    def _fail_all(self, error: BaseException) -> None:
        """The pipe is lost: every exchange in flight ends on the same error."""
        if self._watched is not None:
            self._unwatch()
        while self._exchanges:
            self._finish(error=error)

    def _finish(self, reply=None, out=None, error=None) -> None:
        """On the loop: the head exchange's reply has been read.

        Results out, place free.  The results are assembled before the
        slot is handed on (it is still this exchange's), and the counters
        kept, even when the batch was cancelled and nobody takes them.
        """
        exchange = self._exchanges.popleft()
        outcome: list | BaseException
        try:
            if error is not None:
                raise error
            if reply[0] == "error":
                raise RuntimeError(f"serving worker {self.index} failed: {reply[1]}")
            if reply[0] == "ok_ring":  # the result arrays are views of the slot
                _, slot, mode, delta = reply
                if slot != exchange.slot:  # replies come in doorbell order
                    raise RuntimeError(
                        f"serving worker {self.index} answered slot {slot}, "
                        f"slot {exchange.slot} was due"
                    )
                arrays = self.ring.read_response(slot)
                if mode == _MODE_MC:
                    out = BatchOutput(sample_probs=arrays[0])
                else:
                    # early-exit results keep per-row views of probs,
                    # so copy out of the slot before it is reused
                    out = BatchOutput(
                        probs=arrays[0].copy(), exit_indices=arrays[1].copy()
                    )
            else:  # "ok": the result came down the pipe
                _, delta = reply
            # the worker's cache traffic and busy time, accumulated from
            # per-reply deltas so the totals survive its death
            hits, misses, compute_ns, cycle_ns = delta
            self.cache_hits += hits
            self.cache_misses += misses
            self.compute_ns += compute_ns
            self.cycle_ns += cycle_ns
            outcome = assemble_results(out)
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
        if self.ring is not None:
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
        # the stop frame must not interleave with a doorbell, nor the close
        # with a reply still in flight (a cancelled batch's): wait for every
        # exchange to end, then keep the handle until it is closed.
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

    def __init__(self, *args, transport: str = "ring", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if transport not in ("ring", "pipe"):
            raise ValueError(f"transport must be 'ring' or 'pipe', got {transport!r}")
        self.transport = transport
        self.depth = _SLOTS if transport == "ring" else 1
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
    def _open_generation(self, engine, generation: int) -> SharedParameterArena:
        return SharedParameterArena.create(
            list(engine_parameters(engine)), generation=generation
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

    def _spawn_worker(self, config: _WorkerConfig, cpu: int | None) -> _WorkerHandle:
        """Spawn one worker process over its own ring (no ready-wait)."""
        ctx = multiprocessing.get_context(_MP_CONTEXT)
        ring = (
            BatchRing.create(_SLOTS, *self._ring_geometry())
            if self.transport == "ring"
            else None
        )
        index = next(self._indices)
        parent_conn, child_conn = ctx.Pipe()
        manifest = ring.manifest if ring is not None else None
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, config, manifest, cpu),
            daemon=True,
            name=f"repro-serving-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(index, process, parent_conn, ring, cpu)

    def _make_replicas(self, count: int, timeout: float) -> list[_WorkerHandle]:
        """Spawn ``count`` workers over the current arena, then await them all."""
        config = _WorkerConfig(
            engine=self.engine,
            num_samples=self.num_samples,
            early_exit_threshold=self.early_exit_threshold,
            manifest=self._shared.manifest,
        )
        handles: list[_WorkerHandle] = []
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
