"""Reach census: which ``src/repro`` functions the product entry points enter.

Runs each of the product's entry points in a child interpreter:

* every script in ``examples/``, as ``__main__``;
* the six paper drivers, ``repro.analysis.paper.run_*``;
* the smoke grid's ``init`` → ``run`` → ``status`` → ``report`` into a
  temporary store, with the JSON and CSV outputs CI asks for, and ``init``
  (no cell run) of the paper grid and of the smoke grid read back from a
  JSON grid file, each into a store of its own;
* the fenced ``python`` blocks of ``README.md`` and ``docs/architecture.md``,
  one interpreter and one shared namespace per document, as ``make docs``
  runs them;
* the server CLI on the process backend (``--port 0 --backend process``),
  serving one predict from the loadgen CLI and then getting SIGINT;
* one short ``http_closed`` run of the repo benchmark (``benchmarks/e2e``).

Every child interpreter — these, and the workers any of them spawns — is
traced by a ``sitecustomize.py`` that the census writes into its temporary
directory and puts first on the children's ``PYTHONPATH``: it installs
``sys.setprofile`` and ``threading.setprofile`` at start-up and appends
each code object it enters to a file of its own in that directory, whose
path is written into the module.  An entry point's stdout goes nowhere;
its stderr passes through.

It then prints one row per function defined under ``src/repro`` (found by
an ``ast`` walk before anything runs, so an edit to ``src/`` during a run
moves nothing): ``entered`` or ``never``, the function's lines (``def`` to
last line) and where it is.  Stdlib only.  Usage::

    python tools/reach.py     # or: make reach
"""

from __future__ import annotations

import ast
import contextlib
import functools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
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


#: the ``sitecustomize.py`` every child interpreter of the census imports
CHILD_PROFILE = """\
\"\"\"Written by tools/reach.py: add this interpreter's calls to the census.\"\"\"
import os
import sys
import threading

_out = os.open(
    os.path.join({codes!r}, "%d.codes" % os.getpid()),
    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
)
_seen = set()


def _profile(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        code = frame.f_code
        _seen.add(code)
        # one unbuffered line per new function: nothing is lost to os._exit
        line = "%s\\t%d\\n" % (os.path.abspath(code.co_filename), code.co_firstlineno)
        os.write(_out, line.encode())


threading.setprofile(_profile)
sys.setprofile(_profile)
"""


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
def tracing_children(scratch: Path):
    """Trace every child interpreter started inside; yields their codes directory.

    ``PYTHONPATH`` leads with ``scratch``, which holds the generated
    ``sitecustomize.py``, then ``src``; it is restored on the way out.
    """
    codes = scratch / "codes"
    codes.mkdir()
    (scratch / "sitecustomize.py").write_text(CHILD_PROFILE.format(codes=str(codes)))
    before = os.environ.get("PYTHONPATH")
    paths = [str(scratch), str(REPO_ROOT / "src")] + ([before] if before else [])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    try:
        yield codes
    finally:
        if before is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = before


def child_keys(codes: Path) -> set[tuple[str, int]]:
    """The ``functions`` keys the traced children wrote into ``codes``."""
    paths: dict[str, str] = {}
    keys = set()
    for path in codes.glob("*.codes"):
        for line in path.read_text().splitlines():
            name, _, first = line.rpartition("\t")
            if name not in paths:
                paths[name] = os.path.realpath(name)
            keys.add((paths[name], int(first)))
    return keys


def _run(argv: list[str]) -> None:
    """Run one entry point's interpreter to the end; its stdout goes nowhere."""
    subprocess.run(
        argv, stdout=subprocess.DEVNULL, check=True, cwd=REPO_ROOT, timeout=900
    )


def _examples() -> list[tuple[str, list[str]]]:
    return [
        (f"examples/{path.name}", [sys.executable, str(path)])
        for path in sorted((REPO_ROOT / "examples").glob("*.py"))
    ]


def _paper_drivers() -> list[tuple[str, list[str]]]:
    return [
        (
            f"paper.{name}",
            [sys.executable, "-c", f"from repro.analysis import paper; paper.{name}()"],
        )
        for name in PAPER_DRIVERS
    ]


#: writes the smoke grid as a ``--grid-file`` JSON document to ``argv[1]``
DUMP_SMOKE_GRID = """\
import dataclasses, json, sys
from repro.experiments.grid import smoke_grid
with open(sys.argv[1], "w", encoding="utf-8") as out:
    json.dump(dataclasses.asdict(smoke_grid()), out)
"""


def _grids(scratch: str) -> list[tuple[str, list[str]]]:
    store, paper, from_file, grid_file = (
        os.path.join(scratch, name)
        for name in ("grid.sqlite", "paper.sqlite", "file.sqlite", "grid.json")
    )
    grid = [sys.executable, "-m", "repro.experiments"]
    return [
        ("grid init", grid + ["init", "--store", store, "--grid", "smoke"]),
        ("grid run", grid + ["run", "--store", store, "--reclaim-running", "--json"]),
        ("grid status", grid + ["status", "--store", store, "--expect-done"]),
        (
            "grid report",
            grid
            + ["report", "--store", store, "--markdown", "--summary"]
            + ["--csv", store + ".csv"],
        ),
        ("grid init paper", grid + ["init", "--store", paper, "--grid", "paper"]),
        ("grid file", [sys.executable, "-c", DUMP_SMOKE_GRID, grid_file]),
        (
            "grid init from the file",
            grid + ["init", "--store", from_file, "--grid-file", grid_file],
        ),
    ]


#: documents whose ``python`` blocks the census runs (``tests/docs`` runs them too)
EXECUTED_DOCS = ("README.md", "docs/architecture.md")

#: runs the fenced ``python`` blocks of the document ``argv[1]`` top to
#: bottom in one namespace, as ``tests/docs/test_docs.py`` does
RUN_DOC = """\
import re, sys
doc = sys.argv[1]
text = open(doc, encoding="utf-8").read()
blocks = re.findall(r"```python\\n(.*?)```", text, re.DOTALL)
namespace = {"__name__": "docs_exec"}
for i, block in enumerate(blocks):
    exec(compile(block, f"{doc}[python block {i}]", "exec"), namespace)
"""


def _docs() -> list[tuple[str, list[str]]]:
    return [(doc, [sys.executable, "-c", RUN_DOC, doc]) for doc in EXECUTED_DOCS]


#: one short ``http_closed`` run of the repo benchmark
BENCHMARK_RUN = (
    "e2e http_closed",
    [sys.executable, str(REPO_ROOT / "benchmarks" / "e2e" / "run.py")]
    + ["--workload=http_closed", "--seed=0", "--trace=0", "--seconds=0.3"]
    + ["--round-seconds=0.3", "--replay-batches=4", "--setup-runs=1"],
)


#: how long the server CLI may take to print its banner before it is killed
BANNER_SECONDS = 120.0


def _server_cli() -> None:
    """The server CLI: one predict from the loadgen CLI, then SIGINT."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.server", "--port", "0"]
        + ["--backend", "process"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # a server that hangs before its banner is killed, which ends its stdout
    watchdog = threading.Timer(BANNER_SECONDS, server.kill)
    watchdog.start()
    try:
        for line in server.stdout:  # a warning may come first; EOF if it died
            match = re.search(r"serving on http://([^:\s]+):(\d+)", line)
            if match:
                break
        else:
            raise RuntimeError(
                f"the server CLI exited with {server.wait()} before serving "
                f"(it is killed after {BANNER_SECONDS:g} s)"
            )
        watchdog.cancel()
        loadgen = subprocess.run(
            [sys.executable, "-m", "repro.serving.loadgen", "--host", match[1]]
            + ["--port", match[2], "--process", "burst", "--burst-size", "1"]
            + ["--rate", "1", "--duration", "1", "--json"],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        if json.loads(loadgen.stdout)["ok"] != 1:
            raise RuntimeError(f"the loadgen CLI got no answer: {loadgen.stdout}")
        server.send_signal(signal.SIGINT)
        server.communicate(timeout=60)
    finally:
        watchdog.cancel()
        if server.poll() is None:
            server.kill()
            server.communicate()
    if server.returncode != 0:
        raise RuntimeError(f"the server CLI exited with {server.returncode}")


def _entry_points(scratch: str) -> list[tuple[str, Callable[[], None]]]:
    children = (
        _examples() + _paper_drivers() + _grids(scratch) + _docs() + [BENCHMARK_RUN]
    )
    return [(label, functools.partial(_run, argv)) for label, argv in children] + [
        ("server and loadgen CLIs", _server_cli)
    ]


def census(
    entry_points: Iterable[tuple[str, Callable[[], None]]], scratch: Path
) -> set[tuple[str, int]]:
    """Run each entry point with its children traced; the ``functions`` keys entered."""
    with tracing_children(scratch) as codes:
        for label, entry in entry_points:
            print(f"running {label}", file=sys.stderr, flush=True)
            entry()
    return child_keys(codes)


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
    found = functions(SOURCE_ROOT)  # before anything runs
    with tempfile.TemporaryDirectory() as scratch:
        keys = census(_entry_points(scratch), Path(scratch))
    print("\n".join(table(found, keys)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
