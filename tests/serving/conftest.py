"""Leak gate for the serving suite: every test must clean up after itself.

A serving test that leaves a shared-memory segment in ``/dev/shm`` (a
parameter arena generation, a worker's ring) or a live
``multiprocessing`` child (a worker process that outlived ``stop()``)
fails, whichever exit path it took — crash retries, respawns, generation
swaps and cancelled batches included.  So does one that leaves the test
thread's CPU mask narrowed (a process pool keeps its loop thread off its
workers' CPUs and must put the mask back when it stops), or a
``DynamicBatcher`` that was started and never stopped (its collector task
was still pending on the loop when the test let go of it).

Also registers the ``hypothesis`` profile of the suite's state machines.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import pytest
from hypothesis import settings

from repro.serving import DynamicBatcher

_SHM_DIR = "/dev/shm"

# Deterministic in tier-1 (same examples on every run, no database) and
# without a per-example deadline, so a slow stretch of the host cannot fail
# it; 60 x 40 event-loop steps stay far below the 120 s per-test timeout.
settings.register_profile(
    "serving-stateful",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    stateful_step_count=40,
)


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created (``psm_*``)."""
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux fallback
        return set()
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}


def _foreign(name: str) -> bool:
    """Whether only *other* processes map the segment (not this test's leak).

    Another program on the box (a benchmark, a second pytest) creates
    segments of its own while a test runs; those are mapped by their owner
    and not by us.  A segment this process leaked is still mapped here, and
    one nobody maps any more is an orphan — both count as leaks.
    """
    needle = f"{_SHM_DIR}/{name}"

    def mapped_by(pid: str) -> bool:
        try:
            return needle in Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            return False

    if mapped_by("self"):
        return False
    return any(mapped_by(pid) for pid in os.listdir("/proc") if pid.isdigit())


@pytest.fixture(autouse=True)
def no_leaked_segments_or_workers(monkeypatch):
    before = _shm_segments()
    get_mask = getattr(os, "sched_getaffinity", None)
    mask = get_mask(0) if get_mask is not None else None
    started: list[DynamicBatcher] = []
    start = DynamicBatcher.start

    async def recording_start(batcher):
        started.append(batcher)
        await start(batcher)

    monkeypatch.setattr(DynamicBatcher, "start", recording_start)
    yield
    # stop() — either kind — is what takes the collector off the loop
    unstopped = [b for b in started if b._collector is not None]
    assert not unstopped, f"{len(unstopped)} batcher(s) started and never stopped"
    if get_mask is not None and get_mask(0) != mask:
        left = get_mask(0)
        os.sched_setaffinity(0, mask)  # the tests after this one start clean
        raise AssertionError(f"the test thread's CPU mask was left at {left}")
    # a worker told to stop is joined by the pool; give a terminated one
    # the moment it needs to be reaped before calling it a leak
    deadline = time.monotonic() + 2.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    children = multiprocessing.active_children()
    leaked = {name for name in _shm_segments() - before if not _foreign(name)}
    assert not children, f"worker processes left running: {children}"
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
