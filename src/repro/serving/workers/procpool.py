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
  sized from the pool's batch geometry: the parent writes the request rows
  straight into the slot, the pipe carries only a
  ``("ring", seq, token, slot, fault)`` doorbell, and the worker reads the
  batch as a zero-copy view and writes the result arrays into the slot's
  response region (``("ok_ring", slot, mode, cache_delta)``).  The other
  frame is ``("batch", seq, token, array, fault)`` — the batch
  ``np.stack``-ed in the parent and pickled down the pipe, answered
  ``("ok", out, cache_delta)``: the whole protocol under
  ``transport="pipe"`` and the fallback whenever the ring refuses a batch
  (``stage_request`` / ``write_response`` returning no-fit).  Same array
  layout either way, so both frames feed
  :func:`~repro.serving.workers.base.compute_batch_array` bit-identical
  operands; the channel carries inputs and probabilities only, never model
  state.  One slot per worker is enough because the roster holds the
  replica's lock for the whole exchange.  A worker that dies (OOM killer,
  segfault, ``kill -9``) fails pipe I/O or the liveness poll and surfaces
  as :class:`~repro.serving.workers.roster.ReplicaDied`; reaping it unlinks
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
requested lifecycle point (``mid_compute``, ``post_response``).
"""

from __future__ import annotations

import itertools
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

#: how often a parent thread waiting on a worker re-checks its liveness
_POLL_INTERVAL_S = 0.2
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


class _WorkerHandle(Replica):
    """Parent-side endpoint of one worker process."""

    def __init__(self, index: int, process, conn, ring: BatchRing | None) -> None:
        super().__init__()
        self.index = index
        self.process = process
        self.conn = conn
        #: this worker's one-slot ring; ``None`` under ``transport="pipe"``
        self.ring = ring

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
        self, seq: int, token: int, payloads: list, fault: str | None
    ) -> list[UncertaintyResult]:
        """Blocking request/response exchange; the slot is ours throughout."""
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
                    raise ReplicaDied(
                        f"worker {self.index} died (exitcode {self.process.exitcode})"
                    )
            reply = self.conn.recv()
            if reply[0] == "error":
                raise RuntimeError(f"serving worker {self.index} failed: {reply[1]}")
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
            # the worker's cache traffic, accumulated from per-reply deltas
            # so the totals survive its death
            self.cache_hits += delta[0]
            self.cache_misses += delta[1]
            # assembled before the slot is handed on: it is still this batch's
            return assemble_results(out)
        except (OSError, EOFError) as exc:
            # OSError covers BrokenPipeError/ConnectionResetError and
            # also "handle is closed": teardown may close the pipe while
            # a cancelled batch's executor thread still drains it here
            raise ReplicaDied(f"worker {self.index}: {exc!r}") from None

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def _close_channel(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.ring is not None:
            self.ring.release()

    def reap(self) -> None:
        self.alive = False
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self._close_channel()

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
        self._close_channel()


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
