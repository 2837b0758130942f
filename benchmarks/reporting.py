"""Machine-readable benchmark results: ``BENCH_serving.json``.

The timing benchmarks print their measurements, but printed numbers leave
no trajectory: CI cannot plot a perf history from log lines.  Benchmarks
therefore also :func:`record` their headline metrics (throughput, latency
percentiles, speedup ratios) into a module-level registry, and a
``pytest_sessionfinish`` hook in ``benchmarks/conftest.py`` flushes the
registry to ``BENCH_serving.json`` at the end of every ``make bench`` /
``pytest benchmarks`` run.  CI uploads the file as a build artifact and
appends a :func:`markdown_summary` table to ``$GITHUB_STEP_SUMMARY``.

Flushing **merges, suite-keyed and atomically**: each benchmark suite
updates only its own top-level sections of an existing file (via a
temp-file + ``os.replace`` dance, so concurrent runs in one workspace
never interleave partial JSON).  A CI job that runs the serial suite and
then the parallel suite therefore accumulates *one combined* artifact
instead of the last writer clobbering the first — the failure mode that
previously made the bench trajectory untrackable PR-over-PR.

The file maps benchmark names to flat metric dicts, plus an ``_meta``
section: ``generated_at`` is the *first* flush into this file (preserved
across merges, so an artifact's age is its true age), ``updated_at`` the
most recent one, and ``runner_fingerprint`` identifies the hardware
class the numbers were measured on (the same stamp the experiment grid
puts on its store rows)::

    {
      "_meta": {"generated_at": "...", "updated_at": "...",
                "runner_fingerprint": "linux-x86_64-cpu8", ...},
      "serving_dynamic_batching": {"speedup_vs_sequential": 4.2, ...},
      "parallel_serving": {"speedup_k4_vs_k1": 2.6, ...},
      "procpool_serving": {"speedup_k4_procs_vs_k1": 3.1, ...}
    }

Only numbers/strings belong in metrics — the file is for dashboards and
diffing, not for pickling arrays.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from repro.experiments import runner_fingerprint

__all__ = ["record", "flush", "markdown_summary", "RESULTS_FILENAME"]

RESULTS_FILENAME = "BENCH_serving.json"

_RESULTS: dict[str, dict] = {}

#: metric-name fragments worth surfacing in the CI step summary
_HEADLINE_FRAGMENTS = ("throughput", "speedup", "rps", "latency")


def record(name: str, **metrics) -> None:
    """Register (or update) one benchmark's headline metrics."""
    _RESULTS.setdefault(name, {}).update(metrics)


def _load_existing(path: Path) -> dict:
    """Best-effort read of a previous flush; corrupt files start fresh."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def flush(directory: str | os.PathLike | None = None) -> Path | None:
    """Merge all recorded metrics into ``BENCH_serving.json``; returns the path.

    No file is written (and ``None`` returned) when nothing was recorded —
    e.g. a benchmark subset run that touched no serving benchmarks.
    Existing sections recorded by *other* suites are preserved; sections
    this run re-recorded are updated key-by-key.  The read-merge-write
    cycle runs under an advisory file lock (so concurrent suite runs in
    one workspace, e.g. ``make -j2 bench parallel``, serialize instead of
    overwriting each other's sections) and the write itself is atomic
    (temp file + ``os.replace``), so a reader never observes a torn file.
    """
    if not _RESULTS:
        return None
    path = Path(directory or ".") / RESULTS_FILENAME
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "w") as lock_handle:
        _lock_exclusive(lock_handle)
        payload = _load_existing(path)
        previous_meta = payload.get("_meta")
        if not isinstance(previous_meta, dict):
            previous_meta = {}
        now = datetime.now(timezone.utc).isoformat()
        payload["_meta"] = {
            # first-written timestamp survives merges; updated_at moves
            "generated_at": previous_meta.get("generated_at") or now,
            "updated_at": now,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "runner_fingerprint": runner_fingerprint(),
        }
        for name, metrics in _RESULTS.items():
            section = payload.setdefault(name, {})
            if not isinstance(section, dict):  # corrupt section: replace it
                section = payload[name] = {}
            section.update(metrics)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            prefix=RESULTS_FILENAME + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    # the lock released with the handle above; removing the now-unheld
    # lockfile keeps the workspace clean without weakening the lock —
    # flock follows the inode, so a concurrent flusher that already opened
    # the old file still serializes against holders of that inode, and
    # later flushers simply recreate the file
    try:
        os.unlink(lock_path)
    except OSError:
        pass
    return path


def _lock_exclusive(handle) -> None:
    """Best-effort advisory exclusive lock (POSIX); no-op where unsupported."""
    try:
        import fcntl

        fcntl.flock(handle, fcntl.LOCK_EX)
    except (ImportError, OSError):  # pragma: no cover - non-POSIX fallback
        pass


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def markdown_summary(payload: dict | None = None) -> str:
    """Render the recorded (or given) metrics as a GitHub-flavoured table.

    One row per benchmark section; the columns surface the
    throughput/speedup/latency numbers a reviewer wants at a glance, so CI
    can append the bench trajectory to ``$GITHUB_STEP_SUMMARY`` without
    anyone downloading an artifact.
    """
    payload = dict(_RESULTS if payload is None else payload)
    payload.pop("_meta", None)
    lines = [
        "### Serving benchmarks",
        "",
        "| benchmark | headline metrics |",
        "| --- | --- |",
    ]
    for name in sorted(payload):
        metrics = payload[name]
        if not isinstance(metrics, dict):
            continue
        headline = [
            f"{key} = {_format_value(metrics[key])}"
            for key in sorted(metrics)
            if any(fragment in key for fragment in _HEADLINE_FRAGMENTS)
        ]
        cell = ", ".join(headline) if headline else "(no headline metrics)"
        lines.append(f"| `{name}` | {cell} |")
    if len(lines) == 4:
        lines.append("| _none recorded_ | |")
    return "\n".join(lines) + "\n"
