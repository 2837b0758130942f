"""Async serving layer over the sample-folded inference engines.

The batch-oriented engines of :mod:`repro.inference` answer "run this
``(N, …)`` array"; a service has to answer "here is *one* example, respond
soon" for thousands of concurrent callers.  This subpackage bridges the
two with classic dynamic batching:

* :class:`DynamicBatcher` — payload-agnostic microbatch assembly: dispatch
  when full (``max_batch_size``) or when the oldest pending request has
  waited ``max_batch_latency`` seconds; earliest-deadline-first ordering of
  the backlog for deadlined requests; up to ``max_concurrent_batches``
  batches in flight with assembly pipelined against compute; at most
  ``max_queue_size`` requests accepted and not yet dispatched, beyond which
  ``submit`` either *awaits* room (default) or fails fast with
  :class:`ServerOverloaded`.
* :class:`ServingEngine` — the facade: ``await submit(x, deadline=…)``
  returns an :class:`repro.uncertainty.UncertaintyResult` (probabilities,
  entropy, mutual information, exit index, latency).  Batches run the
  folded ``predict_mc`` hot path — or the active-set early-exit path — on
  a pool of ``workers`` reentrant engine replicas (shared parameters,
  private :class:`~repro.nn.ForwardContext` per replica plus a spawned
  per-batch context), so multi-core hosts compute batches genuinely in
  parallel while the event loop keeps serving.  Only a lone thread
  replica, whose batch nothing could overlap, computes on the loop itself.
* :mod:`repro.serving.workers` — the two batch-execution backends behind
  ``ServingConfig(worker_backend=...)``: K reentrant engine replicas on a
  thread pool (on the event loop when K is 1), or K worker *processes*
  over a shared-memory parameter arena
  (:class:`~repro.nn.shm.SharedParameterArena`) with crash retry.
* :mod:`repro.serving.fleet` — the self-healing fleet layer:
  :class:`WorkerSupervisor` respawns dead workers re-attached to the
  current arena generation, keeping K at ``workers``, and a test-only
  :class:`FaultPlan` injects deterministic worker kills for the chaos
  suite.  Enable with ``ServingConfig(fleet=FleetConfig(...))``; hot-swap
  models with ``ServingEngine.swap_model``.
* :class:`ServingConfig` / :class:`BatcherConfig` — the serializable
  configuration surface: one frozen, validated object;
  ``ServingEngine(model, config=ServingConfig(...))`` is the constructor
  and the dicts round-trip as JSON across the wire.
* :class:`ServingServer` — the network front end: a stdlib asyncio
  HTTP/1.1 server exposing ``POST /v1/predict``, ``GET /v1/stats`` and
  ``GET /v1/health``, with typed error mapping (``ServerOverloaded`` →
  503, ``DeadlineExceeded`` → 504, bad payload → 400).
* :class:`LoadGenerator` / :class:`LoadReport` — the open-loop load
  harness: Poisson / burst / explicit-trace arrival schedules, a
  bounded outstanding-request budget, and achieved-vs-offered-rate plus
  p50/p95/p99 latency reporting.
* :class:`ServingStats` / :class:`BatcherStats` — throughput, latency
  percentiles, batch-size, exit-distribution, shed, crash and fleet
  counters.

See ``docs/architecture.md`` for the request dataflow and
``examples/serving_demo.py`` for an end-to-end run.
"""

from importlib import import_module as _import_module

from .batcher import BatcherStats, DeadlineExceeded, DynamicBatcher, ServerOverloaded
from .config import BatcherConfig, ServingConfig
from .engine import ServingEngine, ServingStats
from .fleet import FaultInjection, FaultPlan, FleetConfig, WorkerSupervisor
from .workers import ProcessWorkerPool, ThreadWorkerPool, WorkerCrashed

__all__ = [
    "DynamicBatcher",
    "BatcherStats",
    "BatcherConfig",
    "ServingConfig",
    "ServerOverloaded",
    "DeadlineExceeded",
    "ServingEngine",
    "ServingServer",
    "ServingStats",
    "LoadGenerator",
    "LoadReport",
    "ThreadWorkerPool",
    "ProcessWorkerPool",
    "WorkerCrashed",
    "FaultInjection",
    "FaultPlan",
    "FleetConfig",
    "WorkerSupervisor",
]

# ``server`` and ``loadgen`` double as CLI entry points
# (``python -m repro.serving.server`` / ``...loadgen``); importing them
# eagerly here would make runpy warn about the module being half-imported.
# PEP 562 lazy attributes keep ``from repro.serving import ServingServer``
# working without the package init pulling the CLI modules in.
_LAZY_EXPORTS = {
    "ServingServer": ".server",
    "LoadGenerator": ".loadgen",
    "LoadReport": ".loadgen",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        value = getattr(_import_module(_LAZY_EXPORTS[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
