"""CLI over the grid harness: ``python -m repro.experiments <command>``.

Commands
--------
``init``
    Create (or extend) a results store from a named grid (``--grid
    smoke``/``paper``) or a GridSpec JSON file (``--grid-file``).
``run``
    Claim and execute pending cells; ``--reclaim-running`` first returns
    orphaned ``running`` claims (a SIGKILLed runner) to the pool,
    ``--reset-failed`` retries failed cells, ``--max-cells`` bounds the
    batch.  ``--json`` prints the run summary for scripting.
``status``
    Cell counts per status; ``--expect-done`` exits non-zero unless
    every cell is ``done`` (the CI strictness hook).
``report``
    Export the results: ``--markdown``/``--summary`` print tables,
    ``--csv PATH``/``--markdown-out PATH`` write files.

The ``make grid`` target chains ``init`` + ``run`` + ``report`` over the
smoke grid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .grid import GRIDS, GridSpec
from .report import csv_table, markdown_table, summary_table
from .runner import ExperimentRunner
from .store import ResultsStore


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Scenario-grid experiment runner over a sqlite results store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create/extend a store from a grid")
    p_init.add_argument("--store", required=True, help="sqlite store path")
    group = p_init.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", choices=sorted(GRIDS), help="named grid")
    group.add_argument("--grid-file", help="GridSpec JSON file")

    p_run = sub.add_parser("run", help="claim and execute pending cells")
    p_run.add_argument("--store", required=True)
    p_run.add_argument("--runner-id", default=None)
    p_run.add_argument("--max-cells", type=int, default=None)
    p_run.add_argument(
        "--reclaim-running",
        action="store_true",
        help="return orphaned 'running' claims to the pool before running",
    )
    p_run.add_argument(
        "--reset-failed",
        action="store_true",
        help="retry failed cells (their previous errors are cleared)",
    )
    p_run.add_argument("--json", action="store_true", help="print the run summary")

    p_status = sub.add_parser("status", help="cell counts per status")
    p_status.add_argument("--store", required=True)
    p_status.add_argument(
        "--expect-done",
        action="store_true",
        help="exit non-zero unless every cell is done (CI gate)",
    )

    p_report = sub.add_parser("report", help="export result tables")
    p_report.add_argument("--store", required=True)
    p_report.add_argument(
        "--markdown", action="store_true", help="print the per-run table"
    )
    p_report.add_argument(
        "--summary", action="store_true", help="print the replicate-folded table"
    )
    p_report.add_argument("--csv", metavar="PATH", help="write a CSV export")
    p_report.add_argument(
        "--markdown-out", metavar="PATH", help="write the markdown tables to a file"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "init":
        if args.grid is not None:
            spec = GRIDS[args.grid]()
        else:
            spec = GridSpec.from_dict(
                json.loads(Path(args.grid_file).read_text(encoding="utf-8"))
            )
        store = ResultsStore(args.store)
        cells = spec.cells()
        added = store.ensure_cells(cells)
        counts = store.counts()
        print(
            f"{args.store}: {added} cells added "
            f"({len(cells)} in grid, {sum(counts.values())} in store)"
        )
        return 0

    if args.command == "run":
        store = ResultsStore(args.store)
        if args.reclaim_running:
            reclaimed = store.reset_running()
            if reclaimed:
                print(f"reclaimed {reclaimed} orphaned running cells")
        if args.reset_failed:
            retried = store.reset_failed()
            if retried:
                print(f"reset {retried} failed cells for retry")
        runner = ExperimentRunner(store, runner_id=args.runner_id)
        # progress goes to stderr so `--json | tee summary.json` stays parseable
        summary = runner.run(
            max_cells=args.max_cells,
            progress=lambda message: print(message, file=sys.stderr),
        )
        if args.json:
            print(json.dumps(summary.to_dict(), indent=2))
        else:
            print(
                f"runner {summary.runner_id}: claimed {summary.claimed}, "
                f"done {summary.done}, failed {summary.failed}"
            )
        return 1 if summary.failed else 0

    if args.command == "status":
        store = ResultsStore(args.store)
        counts = store.counts()
        total = sum(counts.values())
        print(
            f"{args.store}: {total} cells — "
            + ", ".join(f"{counts[status]} {status}" for status in sorted(counts))
        )
        for row in store.cells("failed"):
            first_line = (row.error or "").strip().splitlines()
            print(f"  failed {row.key}: {first_line[-1] if first_line else '?'}")
        if args.expect_done and (total == 0 or counts["done"] != total):
            print("expected every cell done", file=sys.stderr)
            return 1
        return 0

    if args.command == "report":
        store = ResultsStore(args.store)
        wants_file = bool(args.csv or args.markdown_out)
        wants_stdout = args.markdown or args.summary or not wants_file
        chunks = []
        if args.markdown or (wants_stdout and not args.summary):
            chunks.append(markdown_table(store))
        if args.summary:
            chunks.append(summary_table(store))
        text = "\n".join(chunks)
        if wants_stdout and text:
            print(text, end="")
        if args.markdown_out:
            Path(args.markdown_out).write_text(
                markdown_table(store) + "\n" + summary_table(store),
                encoding="utf-8",
            )
            print(f"markdown written to {args.markdown_out}", file=sys.stderr)
        if args.csv:
            Path(args.csv).write_text(csv_table(store), encoding="utf-8")
            print(f"csv written to {args.csv}", file=sys.stderr)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
