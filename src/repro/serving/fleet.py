"""Self-healing, elastically scaled worker fleet for the serving tier.

PRs 5–6 gave the serving engine process workers over a shared-memory
arena and a zero-copy ring transport — but a *static, fragile* fleet: a
crashed worker was reaped and never replaced, K was fixed at
construction, and any model change meant stop/start.  This module closes
that gap with two small control-loop components that a
:class:`~repro.serving.engine.ServingEngine` runs alongside its batcher:

* :class:`WorkerSupervisor` — a liveness loop over the worker pool.  It
  periodically calls :meth:`~repro.serving.workers.roster.WorkerPool
  .ensure_healthy`, which reaps workers that died since the last check
  (including *silent* deaths: a worker killed while idle never fails an
  exchange, so only a liveness scan finds it), unlinks their ring
  segments, and respawns replacements attached to the **current** arena
  generation.  While a supervisor is attached, a transiently empty fleet
  makes batches *wait* for the respawn instead of failing with
  :class:`~repro.serving.workers.base.WorkerCrashed` — crash recovery
  becomes invisible to callers, because the per-batch spawn-key rule
  already makes a retried/respawned batch bit-identical to the original.
* :class:`Autoscaler` — a closed-loop sizing policy between
  ``min_workers`` and ``max_workers`` driven by signals the system
  already exports: submission-queue depth, shed and deadline-miss
  deltas, and recent per-request latency.  Decisions are made by the
  pure function :meth:`Autoscaler.decide` over a :class:`FleetSignals`
  snapshot (unit-testable without clocks or sleeps); the loop applies
  them via :meth:`~repro.serving.workers.roster.WorkerPool.scale_to`,
  which drains a retiring replica's in-flight batch before releasing it.

Both loops are deliberately *policy over mechanism*: the pool owns the
mechanics (spawn, drain, retire, re-attach), the fleet owns only when to
invoke them.  Zero-downtime model swaps — including **shape** changes,
e.g. a DSE rescaling picking a new width — ride the same mechanics: see
``ServingEngine.swap_model`` and the arena-generation protocol in
:mod:`repro.nn.shm`.

Deterministic fault injection
-----------------------------
Crash paths are impossible to test reliably by killing processes at the
right wall-clock moment, so the process pool accepts a test-only
:class:`FaultPlan`: a list of ``(batch seq, lifecycle point)`` pairs.
The parent consumes a matching injection exactly once as the batch is
handed to a worker and either kills the victim itself (``pre_doorbell``)
or poisons the message so the worker traps and dies at the requested
point (``mid_compute``, ``post_response``).  Keying on the batch
sequence number — the same value that seeds the batch's RNG context —
makes every chaos run reproducible: no sleeps, no races, no flaky kills.
"""

from __future__ import annotations

import asyncio
import math
import numbers
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .workers.roster import WorkerPool

__all__ = [
    "FAULT_POINTS",
    "Autoscaler",
    "FaultInjection",
    "FaultPlan",
    "FleetConfig",
    "FleetSignals",
    "WorkerSupervisor",
]

#: lifecycle points a :class:`FaultPlan` can kill a worker at
FAULT_POINTS = ("pre_doorbell", "mid_compute", "post_response")


# Config values can arrive from JSON, whose parser accepts NaN, Infinity,
# 2.5 and true wherever a number goes: a NaN batch latency spins the event
# loop, a fractional sample count fails every request.
def require_int(name: str, value: object) -> None:
    """Reject anything but an integer (``bool`` included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")


def require_count(name: str, value: object) -> None:
    """Reject a count that is not a positive integer."""
    require_int(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive")


def require_duration(name: str, value: object) -> None:
    """Reject a duration that is not a finite, positive number of seconds."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(f"{name} must be positive, finite seconds, got {value!r}")


@dataclass(frozen=True)
class FaultInjection:
    """Kill the worker serving batch ``seq`` at ``point`` (exactly once).

    ``pre_doorbell``
        The parent kills the worker *after* staging the batch into its
        ring slot but *before* sending the doorbell — the crash-retry
        path must release the slot and re-stage on a sibling.
    ``mid_compute``
        The doorbell carries a poison marker; the worker reads the
        request (so it holds the slot semantics of a real mid-compute
        death) and dies before producing a response — the parent sees a
        broken channel mid-wait.
    ``post_response``
        The worker answers normally, then dies before the parent
        releases the slot — a *silent* death only a liveness scan finds.
    """

    seq: int
    point: str

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"fault point must be one of {FAULT_POINTS}, got {self.point!r}"
            )
        if self.seq < 0:
            raise ValueError("fault seq must be a non-negative batch number")


class FaultPlan:
    """Deterministic, consume-once schedule of worker kills (test-only).

    Accepted by ``WorkerPool``/``ServingEngine`` (default off), which hand
    each injection to ``Replica.serve``; ``ServingConfig`` rejects a plan
    on the thread backend, which has no process to kill.
    Each injection fires for exactly one delivery attempt: a batch whose
    first attempt was killed retries on a sibling, and that retry only
    dies too if the plan lists a *second* injection for the same seq —
    which is precisely how the retry-on-sibling crash edges are pinned
    in the chaos suite.

    ``take`` is called on the event loop (``WorkerPool.run``, once per
    delivery attempt); the lock is for the test threads that read
    ``pending`` / ``fired`` while batches are being dispatched.
    """

    def __init__(
        self, injections: Iterable[FaultInjection | tuple[int, str]] = ()
    ) -> None:
        self._pending: list[FaultInjection] = [
            spec if isinstance(spec, FaultInjection) else FaultInjection(*spec)
            for spec in injections
        ]
        self._fired: list[FaultInjection] = []
        self._lock = threading.Lock()

    def take(self, seq: int) -> str | None:
        """Consume and return the next fault point scheduled for ``seq``."""
        with self._lock:
            for i, spec in enumerate(self._pending):
                if spec.seq == seq:
                    self._fired.append(self._pending.pop(i))
                    return spec.point
        return None

    @property
    def pending(self) -> tuple[FaultInjection, ...]:
        """Injections not yet fired (chaos tests assert this drains)."""
        with self._lock:
            return tuple(self._pending)

    @property
    def fired(self) -> tuple[FaultInjection, ...]:
        """Injections already consumed, in firing order."""
        with self._lock:
            return tuple(self._fired)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)


@dataclass
class FleetConfig:
    """Knobs for the supervisor/autoscaler pair of one serving engine.

    Passing a ``FleetConfig`` as ``ServingConfig(fleet=...)`` turns on
    supervision (unless ``supervise=False``) and — when ``min_workers``
    and ``max_workers`` describe a real range — autoscaling.

    Attributes
    ----------
    supervise:
        Run a :class:`WorkerSupervisor`: dead workers are respawned and
        re-attached to the current arena generation, and a transiently
        empty fleet parks batches until a respawn lands instead of
        failing them.
    health_interval:
        Seconds between liveness scans.  Bounds how long a *silent*
        death (a worker killed while idle) can go unnoticed; crashes
        that break an in-flight exchange are detected immediately.
    respawn_wait:
        With every worker dead, how long a batch waits for the
        supervisor to deliver a respawn before failing with
        ``WorkerCrashed``.  Also the per-worker spawn deadline.
    min_workers / max_workers:
        Inclusive autoscaling range.  ``None`` pins the respective bound
        to the engine's initial ``workers`` — so the default config
        supervises without scaling.
    scale_interval:
        Seconds between autoscaler evaluations.
    scale_up_backlog:
        Grow when pending requests per live worker exceed this.  The
        signal is capped by the batcher's ``max_queue_size``: a threshold
        of ``max_queue_size / workers`` or more never fires.
    scale_up_on_shed:
        Grow (regardless of backlog) when any request was shed or missed
        its deadline since the last evaluation — shed traffic is the
        strongest "too small" signal the batcher produces.
    scale_down_idle_evals:
        Shrink after this many consecutive evaluations with an empty
        queue and no completions-in-progress pressure.
    """

    supervise: bool = True
    health_interval: float = 0.05
    respawn_wait: float = 60.0
    min_workers: int | None = None
    max_workers: int | None = None
    scale_interval: float = 0.25
    scale_up_backlog: float = 4.0
    scale_up_on_shed: bool = True
    scale_down_idle_evals: int = 4

    def __post_init__(self) -> None:
        for name in ("health_interval", "respawn_wait", "scale_interval"):
            require_duration(name, getattr(self, name))
        for name in ("min_workers", "max_workers"):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name))
        require_count("scale_down_idle_evals", self.scale_down_idle_evals)

    def resolve_bounds(self, workers: int) -> tuple[int, int]:
        """The concrete (min, max) range given the engine's initial K."""
        lo = self.min_workers if self.min_workers is not None else workers
        hi = self.max_workers if self.max_workers is not None else workers
        if lo <= 0 or hi < lo:
            raise ValueError(
                f"fleet bounds must satisfy 1 <= min <= max, got ({lo}, {hi})"
            )
        return lo, hi

    @property
    def autoscaling(self) -> bool:
        """Whether the config describes a real scaling range."""
        lo = self.min_workers
        hi = self.max_workers
        return lo is not None or hi is not None


@dataclass
class FleetSignals:
    """One autoscaler evaluation's snapshot of live load signals.

    Everything here is already exported by the batcher/engine stats; the
    snapshot exists so :meth:`Autoscaler.decide` is a pure function that
    unit tests can drive without traffic or clocks.
    """

    #: requests accepted and not yet dispatched right now (never above
    #: ``max_queue_size``; batches in flight are bounded separately)
    queue_depth: int
    #: replicas currently able to take a batch
    current_workers: int
    #: requests shed (``DeadlineExceeded``) since the last evaluation
    shed_delta: int = 0
    #: requests completed since the last evaluation
    completed_delta: int = 0
    #: recent p95 end-to-end latency, seconds (0.0 when unknown)
    latency_p95_s: float = 0.0


class Autoscaler:
    """Hysteresis policy: grow fast on pressure, shrink slowly when idle.

    Growth is triggered by backlog (queued requests per worker above
    ``scale_up_backlog``) or by shed/missed-deadline traffic; shrink only
    after ``scale_down_idle_evals`` consecutive idle evaluations, one
    worker at a time.  The asymmetry is deliberate: under-provisioning
    sheds user traffic immediately, over-provisioning merely idles a
    process for a few intervals.
    """

    def __init__(self, config: FleetConfig, workers: int) -> None:
        self.config = config
        self.min_workers, self.max_workers = config.resolve_bounds(workers)
        self._idle_evals = 0

    def decide(self, signals: FleetSignals) -> int:
        """Target worker count for this snapshot (pure; no side effects
        beyond the idle-streak counter)."""
        current = signals.current_workers
        pressured = signals.queue_depth > self.config.scale_up_backlog * max(
            current, 1
        ) or (self.config.scale_up_on_shed and signals.shed_delta > 0)
        if pressured:
            self._idle_evals = 0
            return min(current + 1, self.max_workers)
        idle = signals.queue_depth == 0
        if idle:
            self._idle_evals += 1
            if self._idle_evals >= self.config.scale_down_idle_evals:
                self._idle_evals = 0
                return max(current - 1, self.min_workers)
        else:
            self._idle_evals = 0
        return max(min(current, self.max_workers), self.min_workers)


class WorkerSupervisor:
    """Owns the periodic health/scale loops of one serving engine's pool.

    The supervisor is mechanically simple — it is an asyncio task calling
    two pool methods on a timer — because all the hard state transitions
    (reap, unlink, spawn, re-attach, drain, retire) live in the pool
    itself, where they are also exercised by the synchronous crash-retry
    path.  Splitting policy from mechanism keeps a supervisor crash from
    ever corrupting fleet state: the worst a dead supervisor can do is
    stop healing.

    Lifecycle per worker, as the supervisor sees it::

        spawned ── ready ──► serving ◄──────────────┐
                               │                    │ checkout
           (crash / kill / silent death)            │
                               ▼                    │
                    reaped (ring unlinked)          │
                               │ respawn to target  │
                               ▼                    │
            fresh worker, attached to the           │
            *current* arena generation ─────────────┘

    and on scale-down / generation swap::

        serving ──► retiring (no new checkouts) ──► drained ──► shutdown
    """

    def __init__(
        self,
        pool: "WorkerPool",
        config: FleetConfig,
        signal_source=None,
        on_scale=None,
    ) -> None:
        self.pool = pool
        self.config = config
        #: zero-arg callable returning a :class:`FleetSignals` snapshot
        #: (wired by the serving engine); ``None`` disables autoscaling
        self._signal_source = signal_source
        #: optional callback fired after a scale transition with the new
        #: target (the engine uses it to widen the batcher's pipeline)
        self._on_scale = on_scale
        self.autoscaler = (
            Autoscaler(config, pool.target_workers)
            if config.autoscaling and signal_source is not None
            else None
        )
        self._health_task: asyncio.Task | None = None
        self._scale_task: asyncio.Task | None = None

    @property
    def running(self) -> bool:
        return any(
            task is not None and not task.done()
            for task in (self._health_task, self._scale_task)
        )

    async def start(self) -> None:
        """Attach to the pool and start the health/scale loops (idempotent)."""
        if self.running:
            return
        if self.config.supervise:
            self.pool.supervised = True
            self._health_task = asyncio.ensure_future(self._health_loop())
        if self.autoscaler is not None:
            self._scale_task = asyncio.ensure_future(self._scale_loop())

    async def stop(self) -> None:
        """Detach from the pool and cancel the loops (idempotent)."""
        self.pool.supervised = False
        for task in (self._health_task, self._scale_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._health_task = None
        self._scale_task = None

    async def _health_loop(self) -> None:
        while True:
            try:
                await self.pool.ensure_healthy()
            except asyncio.CancelledError:
                raise
            except Exception:
                # a failed spawn attempt must not kill the loop — the
                # next tick retries; persistent failure surfaces to
                # callers through the pool's respawn_wait timeout
                pass
            await asyncio.sleep(self.config.health_interval)

    async def _scale_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.scale_interval)
            signals = self._signal_source()
            target = self.autoscaler.decide(signals)
            if target != self.pool.target_workers:
                try:
                    await self.pool.scale_to(target)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    continue  # e.g. a spawn failed mid-grow; re-evaluate
                if self._on_scale is not None:
                    self._on_scale(target)
