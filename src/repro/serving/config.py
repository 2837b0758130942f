"""Serializable serving configuration: one object instead of 15 kwargs.

``ServingEngine`` grew one knob per PR until its constructor carried a
15-parameter sprawl threaded verbatim through every test, benchmark and
example.  That was tolerable for an in-process API; a *network* boundary
(:mod:`repro.serving.server`) is not negotiable about it — a server has
to describe its serving policy in one serializable value that can be
logged, diffed, shipped in a request, or rebuilt on the other side of a
wire.  This module is that value:

* :class:`BatcherConfig` — the batch-assembly and backpressure knobs of
  one :class:`~repro.serving.batcher.DynamicBatcher` (size/latency
  triggers, queue bound, reject-vs-await policy, shed timeout).
* :class:`ServingConfig` — everything a :class:`~repro.serving.engine
  .ServingEngine` needs beyond the model itself: inference mode
  (``num_samples`` / ``early_exit_threshold``), a nested
  :class:`BatcherConfig`, the worker fleet (count, backend),
  an optional :class:`~repro.serving.fleet.FleetConfig`, and the
  test-only :class:`~repro.serving.fleet.FaultPlan`.

Both are frozen dataclasses validated eagerly at construction — a config
object that exists is a config object that can serve — and round-trip
through plain dicts (:meth:`ServingConfig.to_dict` /
:meth:`ServingConfig.from_dict`) so the wire boundary can carry them as
JSON.  ``ServingEngine(model, config=ServingConfig(...))`` is the only
constructor, and ``ServingConfig(..., batcher=BatcherConfig(...))`` the
only spelling of a config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from .fleet import (
    FaultInjection,
    FaultPlan,
    FleetConfig,
    require_count,
    require_duration,
)

__all__ = ["BatcherConfig", "ServingConfig"]

#: executable values for ``ServingConfig.worker_backend``
WORKER_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class BatcherConfig:
    """Batch assembly + backpressure policy of one ``DynamicBatcher``.

    Attributes
    ----------
    max_batch_size:
        Dispatch a batch as soon as it holds this many requests.
    max_batch_latency:
        Dispatch a *partial* batch this many seconds after its oldest
        request arrived, so a trickle of traffic is never stalled.
        Sub-millisecond values are honoured: selector timers are whole
        milliseconds, so the batcher yield-polls a remaining wait under
        1 ms on the loop thread (bounded by that much CPU per partial
        batch; full batches never wait) rather than rounding it up.
    max_queue_size:
        The backpressure knob: bound on requests accepted and not yet
        dispatched (batches in flight are bounded separately, by
        ``workers x depth``).
    reject_on_full:
        ``False`` (default): submitters await room, in arrival order.
        ``True``: with ``max_queue_size`` requests pending, ``submit``
        fails fast with :class:`~repro.serving.batcher.ServerOverloaded`.
    admission_timeout:
        ``None`` (default): deadlines only order the backlog.  A positive
        number of seconds opts into shed-on-missed-deadline: a request
        that waited past ``min(deadline, admission_timeout)`` fails with
        :class:`~repro.serving.batcher.DeadlineExceeded` at assembly.
    """

    max_batch_size: int = 32
    max_batch_latency: float = 0.002
    max_queue_size: int = 128
    reject_on_full: bool = False
    admission_timeout: float | None = None

    def __post_init__(self) -> None:
        require_count("max_batch_size", self.max_batch_size)
        require_duration("max_batch_latency", self.max_batch_latency)
        require_count("max_queue_size", self.max_queue_size)
        if self.admission_timeout is not None:
            require_duration("admission_timeout", self.admission_timeout)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, JSON-ready."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatcherConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        return cls(**_known_fields(cls, payload))


@dataclass(frozen=True)
class ServingConfig:
    """Everything one ``ServingEngine`` needs beyond the model itself.

    Attributes
    ----------
    num_samples:
        MC samples per prediction in sampling mode (``None`` = the
        model's default).
    early_exit_threshold:
        When set, serve the active-set early-exit path instead of MC
        sampling (multi-exit models only; validated against the model by
        the engine, since the config cannot see it).
    batcher:
        Nested :class:`BatcherConfig` — batching and backpressure.
    workers:
        Engine replicas serving batches concurrently.
    worker_backend:
        ``"thread"`` (in-process replicas) or ``"process"`` (worker
        processes over a shared-memory parameter arena).
    worker_transport:
        ``"ring"``, the only value: the process backend ships every batch
        through shared-memory ring slots sized for the batch geometry.
    fleet:
        Optional :class:`~repro.serving.fleet.FleetConfig` turning the
        static pool into a supervised / autoscaled fleet.
    fault_plan:
        Test-only :class:`~repro.serving.fleet.FaultPlan` of
        deterministic worker kills (process backend only).  Note a plan
        is consume-once *state*, not pure configuration: two engines
        must not share one instance.
    """

    num_samples: int | None = None
    early_exit_threshold: float | None = None
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    workers: int = 1
    worker_backend: str = "thread"
    worker_transport: str = "ring"
    fleet: FleetConfig | None = None
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.num_samples is not None:
            require_count("num_samples", self.num_samples)
        if self.early_exit_threshold is not None and not (
            0.0 < self.early_exit_threshold < 1.0
        ):
            raise ValueError("early_exit_threshold must be in (0, 1)")
        if not isinstance(self.batcher, BatcherConfig):
            raise TypeError(
                f"batcher must be a BatcherConfig, got {type(self.batcher).__name__}"
            )
        require_count("workers", self.workers)
        if self.worker_backend not in WORKER_BACKENDS:
            raise ValueError(
                f"worker_backend must be one of {sorted(WORKER_BACKENDS)}, "
                f"got {self.worker_backend!r}"
            )
        if self.worker_transport != "ring":
            raise ValueError(
                f"worker_transport must be 'ring', got {self.worker_transport!r}"
            )
        if self.fault_plan is not None and self.worker_backend != "process":
            raise ValueError(
                "fault_plan injects worker-process deaths and requires "
                "worker_backend='process'"
            )
        if self.fleet is not None:
            # surfaces inconsistent bounds at config time, not serve time
            self.fleet.resolve_bounds(self.workers)

    # ------------------------------------------------------------------ #
    # wire form
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, JSON-ready (nested configs become dicts).

        The consume-once :class:`FaultPlan` state is serialized as its
        *pending* injections — rebuilding the dict yields a fresh plan
        with the same schedule.
        """
        payload: dict[str, Any] = {
            "num_samples": self.num_samples,
            "early_exit_threshold": self.early_exit_threshold,
            "batcher": self.batcher.to_dict(),
            "workers": self.workers,
            "worker_backend": self.worker_backend,
            "worker_transport": self.worker_transport,
            "fleet": (
                dataclasses.asdict(self.fleet) if self.fleet is not None else None
            ),
            "fault_plan": (
                [
                    {"seq": spec.seq, "point": spec.point}
                    for spec in self.fault_plan.pending
                ]
                if self.fault_plan is not None
                else None
            ),
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServingConfig":
        """Rebuild a validated config from :meth:`to_dict` output."""
        kwargs = _known_fields(cls, payload)
        batcher = kwargs.get("batcher")
        if isinstance(batcher, Mapping):
            kwargs["batcher"] = BatcherConfig.from_dict(batcher)
        fleet = kwargs.get("fleet")
        if isinstance(fleet, Mapping):
            kwargs["fleet"] = FleetConfig(**_known_fields(FleetConfig, fleet))
        plan = kwargs.get("fault_plan")
        if isinstance(plan, (list, tuple)):
            kwargs["fault_plan"] = FaultPlan(
                FaultInjection(int(spec["seq"]), str(spec["point"])) for spec in plan
            )
        return cls(**kwargs)


def _known_fields(cls, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Keep only ``cls``'s dataclass fields; reject anything unknown."""
    names = {f.name for f in fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields: {sorted(unknown)}"
        )
    return {name: payload[name] for name in names if name in payload}
