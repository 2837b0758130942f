"""Execute claimed grid cells through the real serving stack.

:class:`ExperimentRunner` is the worker side of the harness: it pulls
pending cells from a :class:`~repro.experiments.store.ResultsStore`,
builds the cell's model and :class:`~repro.serving.ServingConfig`, and
drives a :class:`~repro.serving.ServingEngine` — dynamic batcher, thread
or process workers — under the cell's traffic
schedule.  One metrics row per execution goes back to the store, stamped
with the :func:`runner_fingerprint` of the machine that measured it:

* ``throughput_rps`` and the nearest-rank ``latency_p50/p95/p99_s``
  tail, measured by the runner's own clock over the load phase;
* the engine's counters — batches, mean batch size, shed, crashes,
  respawns and activation-cache hits/misses;
* ``bit_hash``: a blake2b digest over the probabilities of a small
  *sequential probe* submitted before the load phase.  One-at-a-time
  submission pins the batch boundaries, and batch sequence numbers seed
  the MC contexts, so the probe is bit-identical across worker counts
  and backends — the cross-cell invariant that catches a numerics
  regression no throughput number would.

Traffic shapes (the ``traffic`` cell axis):

* ``sequential`` — ``num_requests`` examples submitted one at a time
  (closed loop; deterministic batching, so replicates of a cell agree
  bit-for-bit);
* ``poisson`` / ``burst`` — the seeded open-loop arrival schedules of
  :mod:`repro.serving.loadgen`, fired at the engine directly (no HTTP)
  with a bounded in-flight budget that *drops* rather than queues.

A cell that raises is marked ``failed`` with its traceback; the runner
moves on to the next cell, so one broken scenario cannot wedge a grid.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import platform
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..core.bayesnn import MultiExitBayesNet, MultiExitConfig
from ..metrics import nearest_rank_percentile
from ..nn.architectures import get_architecture
from ..serving.config import BatcherConfig, ServingConfig
from ..serving.engine import ServingEngine
from ..serving.loadgen import burst_schedule, fire_open_loop, poisson_schedule
from .store import CellRow, ResultsStore

__all__ = [
    "ExperimentRunner",
    "RunSummary",
    "build_model",
    "build_serving_config",
    "runner_fingerprint",
]

#: examples in the deterministic bit-identity probe (see module docstring)
PROBE_REQUESTS = 4


def build_model(arch: Mapping[str, Any], seed: int) -> MultiExitBayesNet:
    """Build the cell's multi-exit model from its ``arch`` parameters."""
    spec = get_architecture(
        arch["name"],
        input_shape=tuple(arch["input_shape"]),
        num_classes=int(arch["num_classes"]),
        width_multiplier=float(arch["width_multiplier"]),
    )
    config = MultiExitConfig(
        num_exits=int(arch["num_exits"]),
        mcd_layers_per_exit=int(arch["mcd_layers_per_exit"]),
        dropout_rate=float(arch["dropout_rate"]),
        seed=seed,
    )
    return MultiExitBayesNet(spec, config)


def build_serving_config(params: Mapping[str, Any]) -> ServingConfig:
    """Build the cell's :class:`ServingConfig` from its parameters."""
    return ServingConfig(
        num_samples=int(params["num_samples"]),
        early_exit_threshold=params["exit_policy"],
        batcher=BatcherConfig(**params["batcher"]),
        workers=int(params["workers"]),
        worker_backend=params["worker_backend"],
    )


def runner_fingerprint() -> str:
    """``{os}-{machine}-cpu{count}`` — what a perf number was measured on."""
    return (
        f"{platform.system().lower()}-{platform.machine().lower()}"
        f"-cpu{os.cpu_count()}"
    )


@dataclass
class RunSummary:
    """What one :meth:`ExperimentRunner.run` invocation did."""

    runner_id: str
    claimed: int = 0
    done: int = 0
    failed: int = 0
    #: scenario label -> status, in execution order
    cells: list[tuple[str, str]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "runner_id": self.runner_id,
            "claimed": self.claimed,
            "done": self.done,
            "failed": self.failed,
            "cells": [list(item) for item in self.cells],
        }


class ExperimentRunner:
    """Claim-execute-record loop over one results store.

    Parameters
    ----------
    store:
        The shared :class:`ResultsStore` (several runners may point at
        one file).
    runner_id:
        Identity written into claims (defaults to ``host:pid``).
    execute:
        Override of the per-cell execution function (``(params, seed) ->
        metrics dict``) — the seam the store/runner tests use to run a
        grid without paying for real serving engines.
    """

    def __init__(
        self,
        store: ResultsStore,
        runner_id: str | None = None,
        execute: Callable[[Mapping[str, Any], int], Mapping[str, Any]]
        | None = None,
    ) -> None:
        self.store = store
        self.runner_id = runner_id or f"{os.uname().nodename}:{os.getpid()}"
        self._execute = execute or run_cell

    def run(
        self,
        max_cells: int | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> RunSummary:
        """Claim and execute pending cells until drained (or ``max_cells``)."""
        summary = RunSummary(runner_id=self.runner_id)
        while max_cells is None or summary.claimed < max_cells:
            row = self.store.claim(self.runner_id)
            if row is None:
                break
            summary.claimed += 1
            label = _scenario_label(row)
            if progress is not None:
                progress(f"running {label}")
            try:
                metrics = dict(self._execute(row.params, row.seed))
            except Exception:
                self.store.mark_failed(row.id, traceback.format_exc())
                summary.failed += 1
                summary.cells.append((label, "failed"))
            else:
                self.store.mark_done(row.id, metrics, runner_fingerprint())
                summary.done += 1
                summary.cells.append((label, "done"))
        return summary


def _scenario_label(row: CellRow) -> str:
    from .grid import Cell

    return Cell(key=row.key, seed=row.seed, params=row.params).scenario


# ---------------------------------------------------------------------- #
# one cell, for real
# ---------------------------------------------------------------------- #
def run_cell(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Execute one cell through a real serving engine; returns its metrics."""
    return asyncio.run(_run_cell_async(params, seed))


async def _run_cell_async(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    model = build_model(params["arch"], seed)
    config = build_serving_config(params)
    rng = np.random.default_rng(seed)
    examples = rng.normal(size=(16, *params["arch"]["input_shape"]))
    traffic = params["traffic"]

    engine = ServingEngine(model, config)
    async with engine:
        # --- deterministic probe: one request per batch, fixed batch seqs
        digest = hashlib.blake2b(digest_size=8)
        for i in range(PROBE_REQUESTS):
            result = await engine.submit(examples[i % len(examples)])
            digest.update(
                np.ascontiguousarray(result.probs, dtype=np.float64).tobytes()
            )
        bit_hash = digest.hexdigest()

        # --- load phase under the cell's traffic shape
        latencies: list[float] = []
        dropped = failed = 0
        t0 = time.perf_counter()
        if traffic["process"] == "sequential":
            for i in range(int(traffic["num_requests"])):
                result = await engine.submit(examples[i % len(examples)])
                latencies.append(result.latency_s)
            scheduled = sent = int(traffic["num_requests"])
        else:
            rate = float(traffic["rate"])
            duration = float(traffic["duration"])
            if traffic["process"] == "poisson":
                offsets = poisson_schedule(rate, duration, seed)
            else:
                offsets = burst_schedule(rate, duration, int(traffic["burst_size"]))
            scheduled = len(offsets)

            async def send(i: int) -> None:
                await engine.submit(examples[i % len(examples)])

            latencies, sent, dropped, errors = await fire_open_loop(
                offsets, send, int(traffic["max_outstanding"])
            )
            failed = sum(errors.values())
        wall = time.perf_counter() - t0
        stats = engine.stats()

    lat = sorted(latencies)
    ok = len(latencies)
    return {
        "scheduled": scheduled,
        "sent": sent,
        "ok": ok,
        "dropped": dropped,
        "failed": failed,
        "duration_s": wall,
        "throughput_rps": ok / wall if wall > 0 else 0.0,
        "latency_p50_s": nearest_rank_percentile(lat, 50),
        "latency_p95_s": nearest_rank_percentile(lat, 95),
        "latency_p99_s": nearest_rank_percentile(lat, 99),
        "num_batches": stats.num_batches,
        "mean_batch_size": stats.mean_batch_size,
        "requests_shed": stats.requests_shed,
        "worker_crashes": stats.worker_crashes,
        "workers_respawned": stats.workers_respawned,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "bit_hash": bit_hash,
    }
