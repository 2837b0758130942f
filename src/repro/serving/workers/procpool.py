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
  one-slot shared-memory :class:`~repro.serving.workers.ring.BatchRing`
  sized from the pool's batch geometry, and the whole exchange runs on the
  event loop: the parent writes the request rows straight into the slot and
  sends a ``("ring", seq, token, slot, fault)`` doorbell, the worker reads
  the batch as a zero-copy view, writes the result arrays into the slot's
  response region and answers ``("ok_ring", slot, mode, cache_delta)``; a
  loop reader on the pipe wakes the parent, which assembles the results
  from the slot before it hands the slot on.  No thread, no polling
  interval: the worker's death is the pipe's EOF (and, belt and braces,
  its ``process.sentinel``), watched by the same reader.  The other frame is
  ``("batch", seq, token, array, fault)`` — the batch ``np.stack``-ed in
  the parent and pickled down the pipe, answered by an ``("ok",
  cache_delta)`` header and then the pickled result: the whole protocol
  under ``transport="pipe"`` and the fallback whenever the ring refuses a
  batch (``stage_request`` / ``write_response`` returning no-fit).  Frames
  of unbounded size are sent and received on the executor, never on the
  loop — which is why a pickled result is announced by a small header.
  Same array layout either way, so both frames feed
  :func:`~repro.serving.workers.base.compute_batch_array` bit-identical
  operands; the channel carries inputs and probabilities only, never model
  state.  One slot per worker is enough because an exchange owns its handle
  until its reply has been read: a batch cancelled after its doorbell
  leaves one reply in flight, the loop reads it and throws it away, and
  only then does the next batch (or ``shutdown``'s stop frame) get the
  pipe.  A worker that dies (OOM killer, segfault, ``kill -9``) surfaces as
  :class:`~repro.serving.workers.roster.ReplicaDied`; reaping it unlinks
  its ring segment with it.
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
module's logger; crashes, respawns, scaling and generation swaps are logged
by the roster.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import multiprocessing
import os
import time
from dataclasses import dataclass

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
#: each worker's ring has one slot — exchanges are serialised per worker
_SLOT = 0

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


class _WorkerHandle(Replica):
    """Parent-side endpoint of one worker process.

    An exchange owns the handle — pipe, slot and ``_lock`` — from its
    request frame until its reply has been read, whoever reads it: the
    batch that asked, or, once that batch was cancelled, the loop on its
    own, which throws the reply away.  ``_busy`` is the loop's side of that
    ownership (the next batch awaits it), ``_lock`` the side an executor
    thread can wait on (``shutdown``'s stop frame, closing the channel).
    """

    def __init__(self, index: int, process, conn, ring: BatchRing | None) -> None:
        super().__init__()
        self.index = index
        self.process = process
        self.conn = conn
        #: this worker's one-slot ring; ``None`` under ``transport="pipe"``
        self.ring = ring
        #: resolves when the exchange in flight is over; ``None`` when idle
        self._busy: asyncio.Future | None = None
        #: (loop, fds) while loop readers wait for the reply in flight
        self._watched: tuple | None = None
        #: the first ring -> pipe refusal is logged, the rest only counted
        self._refusal_logged = False

    def __repr__(self) -> str:
        return (
            f"worker {self.index} (pid {self.process.pid}, "
            f"exit code {self.process.exitcode})"
        )

    @property
    def exchange_in_flight(self) -> bool:
        """Whether a request's reply has yet to be read off the pipe."""
        return self._busy is not None

    def _stage(self, payloads: list) -> bool:
        """Write the batch into the ring slot; ``False`` = ship it by pipe."""
        if self.ring is None:
            return False
        dest = self.ring.stage_request(_SLOT, (len(payloads), *payloads[0].shape))
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

        The ring path never leaves the loop thread: rows into the slot,
        doorbell down the pipe, a reader on the pipe for the reply.  Frames
        of any size — the pickled ``"batch"`` request, a result that
        outgrew the slot — are sent and received on the executor.
        """
        while self._busy is not None:
            # the reply to a cancelled batch is still in flight: the slot
            # and the next frame on the pipe are not this batch's yet
            await asyncio.shield(self._busy)
        loop = asyncio.get_running_loop()
        if not self._lock.acquire(blocking=False):  # only shutdown() holds it idle
            raise ReplicaDied(f"worker {self.index} is being shut down")
        self._busy = loop.create_future()
        results = loop.create_future()
        try:
            staged = self._stage(payloads)
            if fault == "pre_doorbell":
                # FaultPlan (test-only): deterministic crash *between*
                # staging and the doorbell — the batch dies holding the
                # ring slot and must be re-staged on a sibling
                await off_loop(self._kill)
            if staged:
                self.conn.send(("ring", seq, token, _SLOT, fault))
                self.ring_batches += 1
                self._watch(loop, results, off_loop)
            else:
                frame = ("batch", seq, token, np.stack(payloads), fault)
                self.pipe_batches += 1
                self._finish_after(off_loop(self._pipe_exchange, frame), results)
        except BaseException as exc:
            self._release()
            if isinstance(exc, OSError):  # the doorbell met a closed pipe
                raise ReplicaDied(f"worker {self.index}: {exc!r}") from None
            raise
        # from here the exchange ends itself (_finish): cancelling this
        # batch only means nobody is left to take the results
        return await results

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

    def _finish_after(self, call: asyncio.Future, results: asyncio.Future) -> None:
        """End the exchange when its executor ``call`` returns (nobody awaits it)."""

        def done(call: asyncio.Future) -> None:
            error = call.exception()
            reply, out = (None, None) if error is not None else call.result()
            self._finish(results, reply, out, error)

        call.add_done_callback(done)

    def _watch(self, loop, results: asyncio.Future, off_loop) -> None:
        """Wake on the reply (pipe readable) or the worker's death (EOF, sentinel)."""
        pipe, sentinel = fds = (self.conn.fileno(), self.process.sentinel)
        loop.add_reader(pipe, self._on_readable, results, off_loop, True)
        loop.add_reader(sentinel, self._on_readable, results, off_loop, False)
        self._watched = (loop, fds)

    def _on_readable(self, results: asyncio.Future, off_loop, pipe_ready: bool) -> None:
        loop, fds = self._watched
        self._watched = None
        for fd in fds:
            loop.remove_reader(fd)
        try:
            if not pipe_ready and not self.conn.poll(0):
                # woken by the sentinel alone: nothing to read, not even EOF
                raise EOFError(f"exited with code {self.process.exitcode}")
            # a ring reply is a header of a few dozen bytes, written whole
            reply = self.conn.recv()
            if reply[0] == "ok":
                # the result outgrew the slot and follows as a pickled frame
                # of any size, maybe still being written: read it off the loop
                self._note_refusal("response")
                self._finish_after(off_loop(self._recv_result, reply), results)
                return
        except Exception as exc:  # OSError / EOFError: the worker is gone
            self._finish(results, error=exc)
        else:
            self._finish(results, reply)

    def _finish(
        self, results: asyncio.Future, reply=None, out=None, error=None
    ) -> None:
        """On the loop: the reply has been read — results out, handle free.

        The results are assembled before the slot is handed on (it is
        still this exchange's), and the counters kept, even when the batch
        was cancelled and nobody takes them.
        """
        outcome: list | BaseException
        try:
            if error is not None:
                raise error
            if reply[0] == "error":
                raise RuntimeError(f"serving worker {self.index} failed: {reply[1]}")
            if reply[0] == "ok_ring":  # the result arrays are views of the slot
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
            else:  # "ok": the result came down the pipe
                _, delta = reply
            # the worker's cache traffic, accumulated from per-reply deltas
            # so the totals survive its death
            self.cache_hits += delta[0]
            self.cache_misses += delta[1]
            outcome = assemble_results(out)
        except (OSError, EOFError) as exc:
            # OSError covers BrokenPipeError/ConnectionResetError and also
            # "handle is closed": teardown may close the pipe under a
            # cancelled batch's exchange
            outcome = ReplicaDied(f"worker {self.index}: {exc!r}")
        except Exception as exc:
            outcome = exc
        self._release()
        if results.done():  # cancelled: the reply is read and thrown away
            return
        if isinstance(outcome, BaseException):
            results.set_exception(outcome)
        else:
            results.set_result(outcome)

    def _release(self) -> None:
        busy, self._busy = self._busy, None
        self._lock.release()
        busy.set_result(None)

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def _close_channel(self, owned: bool, timeout: float = 5.0) -> None:
        """Close the pipe and unlink the ring once no exchange uses them.

        The worker is gone by now, so an exchange still in flight (a
        cancelled batch's) ends on EOF within a loop turn; closing under it
        would strand its readers on fd numbers the next spawn reuses.
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
        # with a reply still in flight (a cancelled batch's): wait for the
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
        #: the (arena, weights token) pair last published to the workers
        self._published: tuple | None = None
        #: worker indices never repeat (respawns and grows get fresh ones),
        #: so logs and crash messages never alias two lifetimes
        self._indices = itertools.count()

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

    def _spawn_worker(self, config: _WorkerConfig) -> _WorkerHandle:
        """Spawn one worker process over its own ring (no ready-wait)."""
        ctx = multiprocessing.get_context(_MP_CONTEXT)
        ring = (
            BatchRing.create(1, *self._ring_geometry())
            if self.transport == "ring"
            else None
        )
        index = next(self._indices)
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, config, ring.manifest if ring is not None else None),
            daemon=True,
            name=f"repro-serving-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(index, process, parent_conn, ring)

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
                handles.append(self._spawn_worker(config))
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
        except BaseException:
            for handle in handles:
                handle.shutdown(timeout=1.0)
            raise
        return handles
