"""Reach census: which ``src/repro`` functions the product entry points enter.

Runs the product's entry points in this process, under ``sys.setprofile``
and ``threading.setprofile``:

* every script in ``examples/``, as ``__main__``;
* the six paper drivers, ``repro.analysis.paper.run_*``;
* the smoke grid's ``init`` → ``run`` → ``report`` into a temporary store.

It then prints one row per function defined under ``src/repro`` (found by
an ``ast`` walk): ``entered`` or ``never``, the function's lines (``def``
to last line) and where it is.  Code that runs only in a child process —
the process-backend workers of ``examples/serving_demo.py`` — is not seen
here.  Stdlib only.  Usage::

    PYTHONPATH=src python tools/reach.py     # or: make reach
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType
from typing import Callable, Iterable

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

PAPER_DRIVERS = (
    "run_table1",
    "run_table2",
    "run_table3",
    "run_figure5_resources",
    "run_figure5_latency",
    "run_flops_reduction",
)


def functions(root: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, lines)`` for every function.

    The first line is the code object's ``co_firstlineno``: that of the
    first decorator where there is one, else of the ``def``.
    """
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(body: Iterable[ast.stmt], path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                lines = node.end_lineno - node.lineno + 1
                found[(path, first)] = (prefix + node.name, lines)
                visit(node.body, path, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            else:
                # functions defined under if/try/with at any level
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, ()), path, prefix)

    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree.body, str(path.resolve()), "")
    return found


@contextlib.contextmanager
def collecting(entered: set[CodeType]):
    """Record the code object of every Python call in every thread."""

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def entered_keys(codes: Iterable[CodeType]) -> set[tuple[str, int]]:
    """The ``functions`` keys of the entered code objects."""
    paths: dict[str, str] = {}
    keys = set()
    for code in codes:
        name = code.co_filename
        if name not in paths:
            paths[name] = os.path.realpath(name)
        keys.add((paths[name], code.co_firstlineno))
    return keys


def _examples() -> list[tuple[str, Callable[[], object]]]:
    def run(path: Path) -> Callable[[], object]:
        def script() -> None:
            argv = sys.argv
            sys.argv = [str(path)]
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = argv

        return script

    return [
        (f"examples/{path.name}", run(path))
        for path in sorted((REPO_ROOT / "examples").glob("*.py"))
    ]


def _paper_drivers() -> list[tuple[str, Callable[[], object]]]:
    from repro.analysis import paper

    return [(f"paper.{name}", getattr(paper, name)) for name in PAPER_DRIVERS]


def _smoke_grid(store: str) -> list[tuple[str, Callable[[], object]]]:
    from repro.experiments.__main__ import main

    commands = (
        ["init", "--store", store, "--grid", "smoke"],
        ["run", "--store", store, "--reclaim-running"],
        ["report", "--store", store, "--markdown", "--summary"],
    )
    return [(f"grid {argv[0]}", lambda argv=argv: main(argv)) for argv in commands]


def census(entry_points: Iterable[tuple[str, Callable[[], object]]]) -> set[CodeType]:
    """Run each entry point with its output swallowed; the code entered.

    A thread an entry point leaves running keeps its profile, so the set
    is returned as a copy (one C call, atomic under the GIL).
    """
    entered: set[CodeType] = set()
    for label, entry in entry_points:
        print(f"running {label}", file=sys.stderr, flush=True)
        with collecting(entered), contextlib.redirect_stdout(io.StringIO()):
            entry()
    return entered.copy()


def table(found: dict, keys: set[tuple[str, int]]) -> list[str]:
    rows = [f"{'status':<8} {'lines':>5}  function"]
    totals = {"entered": [0, 0], "never": [0, 0]}
    for (path, first), (name, lines) in sorted(found.items()):
        status = "entered" if (path, first) in keys else "never"
        totals[status][0] += 1
        totals[status][1] += lines
        where = os.path.relpath(path, REPO_ROOT)
        rows.append(f"{status:<8} {lines:>5}  {where}:{first} {name}")
    rows.append(
        "total: {} functions; entered {} ({} lines); never {} ({} lines)".format(
            len(found), *totals["entered"], *totals["never"]
        )
    )
    return rows


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        store = str(Path(scratch) / "grid.sqlite")
        entries = _examples() + _paper_drivers() + _smoke_grid(store)
        keys = entered_keys(census(entries))
    print("\n".join(table(functions(SOURCE_ROOT), keys)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
