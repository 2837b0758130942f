"""Scenario-grid experiment harness with a persistent results store.

The paper's claims span a grid of operating points — architecture x MC
samples x exit policy x batcher geometry x worker backend x traffic
shape — but the benchmarks under ``benchmarks/`` are single-point spot
checks.  This package turns "handles many scenarios" into a queryable
artifact, PyExperimenter-style:

* :class:`GridSpec` (:mod:`repro.experiments.grid`) declares the
  cartesian product of scenario axes, with per-cell seeds and
  replicates; it expands to a deterministic list of *cells*.
* :class:`ResultsStore` (:mod:`repro.experiments.store`) persists the
  cells in a sqlite database with a status column
  (``pending``/``running``/``done``/``failed``).  Runners *claim*
  pending cells transactionally, so several runner processes can chew
  on one grid concurrently, and a grid interrupted mid-run (SIGKILL
  included) resumes where it stopped instead of recomputing ``done``
  cells.
* :class:`ExperimentRunner` (:mod:`repro.experiments.runner`) executes
  each claimed cell through the real serving stack —
  :class:`~repro.serving.ServingEngine`, the dynamic batcher, the
  thread/process worker pools — under the cell's traffic schedule, and
  writes one metrics row (throughput, p50/p95/p99, shed/crash/cache
  counters, a bit-identity hash) back to the store, stamped with
  :func:`runner_fingerprint` (``{os}-{machine}-cpu{count}``).
* :mod:`repro.experiments.report` exports pandas-free markdown / CSV
  percentile tables from the store.

``python -m repro.experiments`` is the CLI over all of it (``init`` /
``run`` / ``status`` / ``report`` — the ``make grid`` entry point).
"""

from .grid import GRIDS, Cell, GridSpec, smoke_grid
from .report import csv_table, markdown_table, summary_table
from .runner import ExperimentRunner, RunSummary, runner_fingerprint
from .store import CellRow, ResultsStore

__all__ = [
    "Cell",
    "CellRow",
    "ExperimentRunner",
    "GRIDS",
    "GridSpec",
    "ResultsStore",
    "RunSummary",
    "csv_table",
    "markdown_table",
    "runner_fingerprint",
    "smoke_grid",
    "summary_table",
]
