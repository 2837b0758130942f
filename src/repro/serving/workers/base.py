"""Worker-pool abstraction shared by the thread and process backends.

The serving tier separates *what a batch computes* from *where it runs*:

* :func:`compute_batch_array` — the one compute entry point: runs an
  assembled ``(N, *input_shape)`` batch through the folded MC hot path (or
  the active-set early-exit path) on one engine under a fresh
  :class:`~repro.nn.context.ForwardContext` spawned from the batch sequence
  number.  It returns plain arrays (:class:`BatchOutput`), so the result
  can cross a process boundary.
* :func:`assemble_results` — the one disassembly: turns those arrays into
  the per-request :class:`~repro.uncertainty.metrics.UncertaintyResult`
  objects.

Both backends run the *same two functions* — the thread pool calls them
back-to-back on a worker thread, the process pool calls the first in a
worker process and the second on the receiving thread.  Responses are
therefore **bit-identical across backends** (and across worker counts,
by the spawn-key rule) whenever batch formation is identical.

:class:`WorkerPool` is the small lifecycle contract
:class:`~repro.serving.engine.ServingEngine` drives: ``start`` /
``run(seq, payloads)`` / ``stop``, plus the fleet surface and counters.
Pools own their engine replicas and know the batch geometry (largest
batch, per-example shape) up front — the serving engine only accepts
built models and ``submit()`` rejects every payload of another shape, so
nothing downstream has to ask whether a batch conforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ...inference.engine import InferenceEngine, NetworkEngine
from ...nn.context import ForwardContext
from ...nn.layers.base import Parameter
from ...uncertainty.metrics import (
    UncertaintyResult,
    mc_uncertainty_results,
    predictive_entropy,
)

__all__ = [
    "BatchOutput",
    "WorkerCrashed",
    "WorkerPool",
    "assemble_results",
    "compute_batch_array",
    "engine_num_classes",
    "engine_parameters",
]

Engine = InferenceEngine | NetworkEngine


class WorkerCrashed(RuntimeError):
    """No live worker is left to serve a batch (process backend only).

    Individual worker deaths are absorbed: the dead worker's in-flight
    batch is retried on a live sibling and the death is surfaced in
    ``ServingStats.worker_crashes``.  This error reaches callers only when
    *every* worker of the pool has died.
    """


@dataclass
class BatchOutput:
    """Raw per-batch arrays, cheap to pickle across a process boundary.

    Exactly one of the two forms is populated: ``sample_probs`` of shape
    ``(S, N, classes)`` in MC-sampling mode, or ``probs`` ``(N, classes)``
    plus ``exit_indices`` ``(N,)`` in early-exit mode.
    """

    sample_probs: np.ndarray | None = None
    probs: np.ndarray | None = None
    exit_indices: np.ndarray | None = None


def engine_parameters(engine: Engine) -> Iterator[Parameter]:
    """The engine's parameters in the deterministic model order."""
    if isinstance(engine, InferenceEngine):
        return engine.model.parameters()
    return engine.network.parameters()


def engine_num_classes(engine: Engine) -> int:
    """Classes per prediction (engines only wrap built models)."""
    if isinstance(engine, InferenceEngine):
        return int(engine.model.num_classes)
    return int(engine.network.output_shape[-1])


def compute_batch_array(
    engine: Engine,
    seq: int,
    batch: np.ndarray,
    num_samples: int | None,
    early_exit_threshold: float | None,
) -> BatchOutput:
    """Run one assembled batch on one engine; returns raw arrays only.

    The fresh per-batch context spawns every dropout stream from
    ``(layer seed, seq)``, so the output depends only on the batch's
    position in the request sequence — never on which worker (thread *or*
    process) computes it, which transport delivered it, or what that
    worker served before.
    """
    ctx = ForwardContext(spawn_key=seq)
    if early_exit_threshold is not None:
        assert isinstance(engine, InferenceEngine)
        res = engine.early_exit_predict(batch, early_exit_threshold, ctx=ctx)
        return BatchOutput(probs=res.probs, exit_indices=res.exit_indices)
    if isinstance(engine, InferenceEngine):
        pred = engine.predict_mc(batch, num_samples, ctx=ctx)
    else:
        pred = engine.sample(batch, num_samples or 1, ctx=ctx)
    return BatchOutput(sample_probs=pred.sample_probs)


def assemble_results(out: BatchOutput) -> list[UncertaintyResult]:
    """Split a batch's raw arrays into one ``UncertaintyResult`` per request.

    MC results derive fresh arrays from ``sample_probs``; early-exit results
    keep row views of ``probs``, so a caller handing in views of reusable
    storage (a ring slot) copies those first.
    """
    if out.sample_probs is not None:
        return mc_uncertainty_results(out.sample_probs)
    entropy = predictive_entropy(out.probs)
    return [
        UncertaintyResult(
            probs=out.probs[i],
            label=int(out.probs[i].argmax()),
            confidence=float(out.probs[i].max()),
            entropy=float(entropy[i]),
            exit_index=int(out.exit_indices[i]),
        )
        for i in range(out.probs.shape[0])
    ]


class WorkerPool:
    """Lifecycle contract between :class:`ServingEngine` and its workers.

    Subclasses own a fleet of engine replicas and guarantee that
    :meth:`run` never executes two batches on the same replica at once.
    ``start``/``stop`` bracket the serving engine's lifecycle; ``stop``
    must be idempotent and leave the wrapped engine fully usable.

    Beyond the original start/run/stop triple, pools expose the *fleet*
    surface that :mod:`repro.serving.fleet` drives:

    * :meth:`ensure_healthy` — detect replicas that died since the last
      check, reclaim their resources and respawn replacements up to the
      current target size (a no-op for backends whose replicas cannot
      die, e.g. threads).
    * :meth:`scale_to` — grow or shrink the fleet between batches.
      Shrinking must *drain before retiring*: a replica with a batch in
      flight finishes it and is only then released.
    * :meth:`swap_engine` — replace the served engine with a new one
      (weights **and shapes** may differ) via a rolling generation swap:
      no request ever fails, no reader ever sees a torn update, and
      :attr:`generation` increments exactly once per swap.

    The counters below feed ``ServingStats``; they are plain ints mutated
    only on the event loop (or under the GIL from executor threads).
    """

    #: dead workers observed so far (process backend; threads cannot die)
    worker_crashes: int = 0
    #: dead workers replaced by the supervisor (process backend)
    workers_respawned: int = 0
    #: completed grow/shrink transitions (either backend)
    scale_events: int = 0
    #: current model/arena generation; bumped once per ``swap_engine``
    generation: int = 0
    #: batches delivered over a shared-memory ring / over the pickle pipe
    #: (process backend; the thread backend never crosses a boundary)
    ring_batches: int = 0
    pipe_batches: int = 0
    #: content-keyed activation-cache hits/misses summed over every replica
    #: the pool has ever owned (retired and crashed replicas included)
    cache_hits: int = 0
    cache_misses: int = 0

    def __init__(
        self,
        engine: Engine,
        workers: int,
        num_samples: int | None,
        early_exit_threshold: float | None,
        *,
        max_batch_size: int,
        input_shape: tuple[int, ...],
    ) -> None:
        self.engine = engine
        self.workers = int(workers)
        self.num_samples = num_samples
        self.early_exit_threshold = early_exit_threshold
        #: batch geometry (largest batch, per-example shape): sizes the
        #: pinned assembly buffers (threads) and the ring slots (processes)
        self.max_batch_size = int(max_batch_size)
        self.input_shape = tuple(input_shape)
        #: desired fleet size; ``scale_to`` moves it, ``ensure_healthy``
        #: restores it after crashes
        self.target_workers = self.workers
        #: set by a :class:`~repro.serving.fleet.WorkerSupervisor` when it
        #: takes ownership of crash recovery: with a supervisor attached, a
        #: transiently dead fleet *waits* for respawns instead of failing
        #: submissions with :class:`WorkerCrashed`
        self.supervised = False

    @property
    def current_workers(self) -> int:
        """Replicas currently able to take a batch (excludes retiring/dead)."""
        return self.workers

    @property
    def alive_workers(self) -> int:
        """Replicas whose worker is verifiably alive *right now*.

        Unlike :attr:`current_workers` (the roster view, updated when the
        supervisor reaps a corpse), this probes the underlying workers —
        the process backend checks ``process.is_alive()`` — so a silent
        death is visible immediately.  It feeds the network front end's
        ``/v1/health`` endpoint, which must flip before the supervisor's
        next scan, not after.  Thread replicas cannot die independently,
        so the default mirrors the roster.
        """
        return self.current_workers

    async def start(self, executor) -> None:
        raise NotImplementedError

    async def stop(self) -> None:
        raise NotImplementedError

    async def run(self, seq: int, payloads: list) -> list[UncertaintyResult]:
        """Serve one assembled batch; safe to call ``workers``-way concurrently."""
        raise NotImplementedError

    async def ensure_healthy(self) -> int:
        """Reap dead replicas and respawn up to ``target_workers``.

        Returns how many replicas were respawned.  The default is a no-op:
        backends whose replicas cannot die independently (threads) are
        always healthy.
        """
        return 0

    async def scale_to(self, target: int) -> None:
        """Grow or shrink the fleet to ``target`` replicas (drain on shrink)."""
        raise NotImplementedError

    async def swap_engine(self, engine: Engine) -> int:
        """Roll the fleet onto ``engine`` (new weights/shapes); new generation."""
        raise NotImplementedError
