"""Self-healing worker fleet for the serving tier.

Left to itself a worker pool is a *static, fragile* fleet: a crashed
worker is reaped and never replaced.  This module closes that gap with one
small control loop that a :class:`~repro.serving.engine.ServingEngine`
runs alongside its batcher:

* :class:`WorkerSupervisor` — a liveness loop over the worker pool.  It
  periodically calls :meth:`~repro.serving.workers.roster.WorkerPool
  .ensure_healthy`, which reaps workers that died since the last check
  (including *silent* deaths: a worker killed while idle never fails an
  exchange, so only a liveness scan finds it), unlinks their ring
  segments, and respawns replacements attached to the **current** arena
  generation, back up to the configured ``workers``.  While a supervisor
  is attached, a transiently empty fleet makes batches *wait* for the
  respawn instead of failing with
  :class:`~repro.serving.workers.base.WorkerCrashed` — crash recovery
  becomes invisible to callers, because the per-batch spawn-key rule
  already makes a retried/respawned batch bit-identical to the original.

The loop is deliberately *policy over mechanism*: the pool owns the
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
    "FaultInjection",
    "FaultPlan",
    "FleetConfig",
    "WorkerSupervisor",
]

#: lifecycle points a :class:`FaultPlan` can kill a worker at
FAULT_POINTS = ("pre_doorbell", "mid_compute", "post_response")


# Config values can arrive from JSON, whose parser accepts NaN, Infinity,
# 2.5 and true wherever a number goes: a NaN batch latency spins the event
# loop, a fractional sample count fails every request.
def require_count(name: str, value: object) -> None:
    """Reject a count that is not a positive integer (``bool`` included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
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
    ``pending`` while batches are being dispatched.
    """

    def __init__(
        self, injections: Iterable[FaultInjection | tuple[int, str]] = ()
    ) -> None:
        self._pending: list[FaultInjection] = [
            spec if isinstance(spec, FaultInjection) else FaultInjection(*spec)
            for spec in injections
        ]
        self._lock = threading.Lock()

    def take(self, seq: int) -> str | None:
        """Consume and return the next fault point scheduled for ``seq``."""
        with self._lock:
            for i, spec in enumerate(self._pending):
                if spec.seq == seq:
                    del self._pending[i]
                    return spec.point
        return None

    @property
    def pending(self) -> tuple[FaultInjection, ...]:
        """Injections not yet fired (chaos tests assert this drains)."""
        with self._lock:
            return tuple(self._pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)


@dataclass
class FleetConfig:
    """Knobs for the supervisor of one serving engine.

    Passing a ``FleetConfig`` as ``ServingConfig(fleet=...)`` turns on
    supervision (unless ``supervise=False``); the fleet stays at the
    engine's ``workers``.

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
    """

    supervise: bool = True
    health_interval: float = 0.05
    respawn_wait: float = 60.0

    def __post_init__(self) -> None:
        for name in ("health_interval", "respawn_wait"):
            require_duration(name, getattr(self, name))


class WorkerSupervisor:
    """Owns the periodic health loop of one serving engine's pool.

    The supervisor is mechanically simple — it is an asyncio task calling
    one pool method on a timer — because all the hard state transitions
    (reap, unlink, spawn, re-attach) live in the pool itself, where they
    are also exercised by the synchronous crash-retry path.  Splitting
    policy from mechanism keeps a supervisor crash from ever corrupting
    fleet state: the worst a dead supervisor can do is stop healing.

    Lifecycle per worker, as the supervisor sees it::

        spawned ── ready ──► serving ◄──────────────┐
                               │                    │ checkout
           (crash / kill / silent death)            │
                               ▼                    │
                    reaped (ring unlinked)          │
                               │ respawn to workers │
                               ▼                    │
            fresh worker, attached to the           │
            *current* arena generation ─────────────┘

    and on a generation swap::

        serving ──► retiring (no new checkouts) ──► drained ──► shutdown
    """

    def __init__(self, pool: "WorkerPool", config: FleetConfig) -> None:
        self.pool = pool
        self.config = config
        self._health_task: asyncio.Task | None = None

    async def start(self) -> None:
        """Attach to the pool and start the health loop (idempotent)."""
        if self._health_task is not None or not self.config.supervise:
            return
        self.pool.supervised = True
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def stop(self) -> None:
        """Detach from the pool and cancel the loop (idempotent)."""
        self.pool.supervised = False
        task, self._health_task = self._health_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

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
