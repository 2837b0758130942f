"""Worker tier of the serving engine: one roster, two kinds of replica.

:class:`~repro.serving.workers.roster.WorkerPool` owns every fleet rule —
checkout, crash-retry, scaling, generation swaps, counters — over
interchangeable :class:`~repro.serving.workers.roster.Replica` objects.
The two backends add only how a replica is made and how a batch reaches
it:

* :class:`ThreadWorkerPool` — engine replicas on the serving engine's
  thread pool (in-process; scales while the GIL-released GEMMs dominate).
* :class:`ProcessWorkerPool` — spawned worker processes over one
  shared-memory parameter arena per model generation (true multi-core
  scaling even when the Python glue dominates; a worker can crash without
  failing a request).

Both run the same two functions — :func:`~repro.serving.workers.base
.compute_batch_array` under a per-batch spawned context, then
:func:`~repro.serving.workers.base.assemble_results` — so responses are
bit-identical across backends and worker counts for identical batch
formation.  Select with ``ServingConfig(worker_backend="thread"|"process")``.

The process backend ships each batch through the worker's two-slot
shared-memory ring (:class:`~repro.serving.workers.ring.BatchRing`) with
the pipe as a doorbell — one batch computing, the next staged behind it,
every slot sized exactly for the batch geometry the pool serves.  See
:mod:`repro.serving.workers.procpool` for the slot ownership rules.
"""

from .base import WorkerCrashed, assemble_results, compute_batch_array
from .procpool import ProcessWorkerPool
from .ring import BatchRing, RingManifest
from .roster import WorkerPool
from .threads import ThreadWorkerPool

__all__ = [
    "BatchRing",
    "RingManifest",
    "WorkerCrashed",
    "WorkerPool",
    "ThreadWorkerPool",
    "ProcessWorkerPool",
    "assemble_results",
    "compute_batch_array",
]
