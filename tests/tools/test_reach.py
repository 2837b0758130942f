"""``tools/reach.py``: the census behind ``make reach``."""

from __future__ import annotations

import functools
import importlib.util
import inspect
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path
from types import CodeType, SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "reach", REPO_ROOT / "tools" / "reach.py"
)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = textwrap.dedent(
    """
    import functools


    def called():
        return helper()


    def helper():
        return 1


    @functools.lru_cache
    def decorated():
        return 2


    class Box:
        def used(self):
            return 3

        def unused(self):
            return 4


    def in_thread():
        return 5


    if True:
        def never():
            def inner():
                return 6

            return inner()
    """
)


ENTRY = """
import threading
import census_target as module

module.called()
module.decorated()
module.Box().used()
worker = threading.Thread(target=module.in_thread)
worker.start()
worker.join()
"""


def _child(script: str):
    """An entry point: one child interpreter that runs ``script``."""
    return functools.partial(reach._run, [sys.executable, "-c", script])


@pytest.mark.parametrize(
    "entries, total",
    [
        ([("entry", _child(ENTRY))], "entered 5 (10 lines); never 3 (9 lines)"),
        ([], "entered 0 (0 lines); never 8 (19 lines)"),
    ],
    ids=["one entry point", "none"],
)
def test_census_tells_entered_functions_from_never_entered_ones(
    tmp_path, monkeypatch, entries, total
):
    source = tmp_path / "source"
    source.mkdir()
    (source / "census_target.py").write_text(MODULE)
    found = reach.functions(source)
    assert {name: lines for name, lines in found.values()} == {
        "called": 2,
        "helper": 2,
        "decorated": 2,
        "Box.used": 2,
        "Box.unused": 2,
        "in_thread": 2,
        "never": 5,
        "never.<locals>.inner": 2,
    }

    monkeypatch.setenv("PYTHONPATH", str(source))
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    rows = reach.table(found, reach.census(entries, scratch))
    assert rows[0].split() == ["status", "lines", "function"]
    status = {row.split()[-1]: row.split()[0] for row in rows[1:-1]}
    entered = {"called", "helper", "decorated", "Box.used", "in_thread"}
    assert status == {
        name: "entered" if entries and name in entered else "never"
        for name in status
    }
    assert len(status) == 8
    assert rows[-1] == f"total: 8 functions; {total}"


def _census_of(tmp_path, monkeypatch, capsys, entry) -> dict[str, str]:
    """``reach.main`` over the functions under ``tmp_path``, with one entry point."""
    monkeypatch.setattr(reach, "SOURCE_ROOT", tmp_path)
    monkeypatch.setattr(reach, "_entry_points", lambda store: [("entry", entry)])
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    capsys.readouterr()
    assert reach.main() == 0
    rows = capsys.readouterr().out.splitlines()
    return {row.split()[-1]: row.split()[0] for row in rows[1:-1]}


def test_an_edit_during_the_census_leaves_entered_functions_entered(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "census_edited.py"
    path.write_text(MODULE)

    def entry():
        _child("import census_edited; census_edited.called()")()
        # every function moves two lines down while the census runs
        path.write_text("\n\n" + MODULE)

    status = _census_of(tmp_path, monkeypatch, capsys, entry)
    assert status["called"] == status["helper"] == "entered"
    assert status["Box.unused"] == "never"


CHILD_MODULE = textwrap.dedent(
    """
    def in_child():
        return 1


    def nowhere():
        return 2
    """
)


SPAWN = """
import multiprocessing
import census_child

if __name__ == "__main__":
    child = multiprocessing.get_context("spawn").Process(target=census_child.in_child)
    child.start()
    child.join(60)
    assert child.exitcode == 0
"""


def test_a_function_run_only_in_a_spawned_child_is_entered(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "census_child.py").write_text(CHILD_MODULE)
    status = _census_of(tmp_path, monkeypatch, capsys, _child(SPAWN))
    assert status == {"in_child": "entered", "nowhere": "never"}


ODD_PLACES = textwrap.dedent(
    """
    import functools

    try:
        import os
    except ImportError:
        def in_handler():
            return 1
    else:
        def in_else():
            return 2
    finally:
        def in_finally():
            return 3


    async def coroutine():
        return 4


    class Outer:
        class Inner:
            @staticmethod
            @functools.lru_cache
            def stacked(
                x,
            ):
                return x
    """
)


def _function_codes(code: CodeType):
    """Every function code object compiled into ``code``, nested ones too."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                yield const
            yield from _function_codes(const)


def test_each_function_is_keyed_by_the_first_line_its_code_object_reports(tmp_path):
    path = tmp_path / "census_odd.py"
    path.write_text(ODD_PLACES)
    found = reach.functions(tmp_path)
    assert sorted(name for name, _ in found.values()) == [
        "Outer.Inner.stacked",
        "coroutine",
        "in_else",
        "in_finally",
        "in_handler",
    ]
    # the profile sees (co_filename, co_firstlineno): every branch's
    # function, taken or not, must land on its own key
    compiled = compile(ODD_PLACES, str(path.resolve()), "exec")
    keys = {(c.co_filename, c.co_firstlineno) for c in _function_codes(compiled)}
    assert set(found) == keys
    assert {name: lines for name, lines in found.values()}["Outer.Inner.stacked"] == 4


def test_child_keys_merge_every_childs_file_under_real_paths(tmp_path):
    real = tmp_path / "we\tird"  # a tab in a path: lines split at the last one
    real.mkdir()
    (tmp_path / "link").symlink_to(real)
    codes = tmp_path / "codes"
    codes.mkdir()
    (codes / "101.codes").write_text(f"{real / 'mod.py'}\t3\n")
    (codes / "102.codes").write_text(
        f"{tmp_path / 'link' / 'mod.py'}\t3\n{real / 'mod.py'}\t9\n"
    )
    (codes / "103.codes").write_text("")  # a child that entered nothing
    target = os.path.realpath(real / "mod.py")
    assert reach.child_keys(codes) == {(target, 3), (target, 9)}


@pytest.mark.parametrize("before", [None, "elsewhere"])
def test_tracing_children_leads_with_the_profile_and_restores_pythonpath(
    tmp_path, monkeypatch, before
):
    if before is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", before)
    with pytest.raises(RuntimeError, match="inside"):
        with reach.tracing_children(tmp_path) as codes:
            paths = os.environ["PYTHONPATH"].split(os.pathsep)
            assert paths == [str(tmp_path), str(reach.REPO_ROOT / "src")] + (
                [] if before is None else [before]
            )
            assert codes.is_dir() and not any(codes.iterdir())
            profile = (tmp_path / "sitecustomize.py").read_text()
            assert repr(str(codes)) in profile
            raise RuntimeError("inside")
    assert os.environ.get("PYTHONPATH") == before


def test_a_child_interpreter_writes_each_function_once_even_through_os_exit(
    tmp_path, monkeypatch
):
    source = tmp_path / "source"
    source.mkdir()
    (source / "census_sub.py").write_text(CHILD_MODULE)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.delenv("PYTHONPATH", raising=False)
    script = "import os, census_sub; census_sub.in_child(); census_sub.in_child()"
    with reach.tracing_children(scratch) as codes:
        subprocess.run(
            [sys.executable, "-c", script + "; os._exit(0)"],
            cwd=source,
            check=True,
            timeout=60,
        )
    keys = reach.child_keys(codes)
    found = reach.functions(source)
    status = {
        name: "entered" if key in keys else "never"
        for key, (name, _) in found.items()
    }
    assert status == {"in_child": "entered", "nowhere": "never"}
    # one unbuffered line for the first call, none for the second
    _, first = next(key for key, (name, _) in found.items() if name == "in_child")
    lines = [
        line
        for codes_file in codes.glob("*.codes")
        for line in codes_file.read_text().splitlines()
        if line.endswith(f"census_sub.py\t{first}")
    ]
    assert len(lines) == 1


def test_census_keeps_each_entry_points_output_out_of_the_table(tmp_path, capfd):
    entries = [("noisy entry", _child("print('noise')"))]
    reach.census(entries, tmp_path)
    assert capfd.readouterr() == ("", "running noisy entry\n")


def test_the_census_grid_commands_parse_under_the_grid_cli(tmp_path):
    from repro.experiments.__main__ import _build_parser

    commands = [argv for _, argv in reach._grids(str(tmp_path))]
    cli = [argv for argv in commands if argv[1:3] == ["-m", "repro.experiments"]]
    names = ("init", "run", "status", "report", "init", "init")
    assert [argv[3] for argv in cli] == list(names)
    parser = _build_parser()
    stores = [parser.parse_args(argv[3:]).store for argv in cli]
    assert all(Path(store).parent == tmp_path for store in stores)
    # the smoke grid's four commands share a store; each bare init has its own
    assert len(set(stores)) == 3


def test_the_census_grid_file_holds_the_smoke_grid(tmp_path, monkeypatch):
    from repro.experiments.__main__ import main
    from repro.experiments.grid import smoke_grid
    from repro.experiments.store import ResultsStore

    grid_file = tmp_path / "grid.json"
    monkeypatch.setattr(sys, "argv", ["-c", str(grid_file)])
    exec(reach.DUMP_SMOKE_GRID, {})  # noqa: S102 - the census's own child script
    store = str(tmp_path / "file.sqlite")
    assert main(["init", "--store", store, "--grid-file", str(grid_file)]) == 0
    assert sum(ResultsStore(store).counts().values()) == len(smoke_grid().cells())


def test_the_census_runs_the_documents_make_docs_runs():
    from tests.docs.test_docs import EXECUTABLE_DOCS

    assert [label for label, _ in reach._docs()] == list(EXECUTABLE_DOCS)
    for doc in EXECUTABLE_DOCS:
        assert (REPO_ROOT / doc).is_file()


def test_a_documents_python_blocks_share_one_namespace_in_order(tmp_path):
    out = tmp_path / "out.txt"
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```python\nvalue = 6\n```\n"
        "```bash\nexit 1\n```\n"
        f"```python\nopen({str(out)!r}, 'w').write(str(value * 7))\n```\n"
    )
    subprocess.run([sys.executable, "-c", reach.RUN_DOC, str(doc)], check=True)
    assert out.read_text() == "42"
    # a failing block fails the entry point, and with it the census
    doc.write_text("```python\nraise SystemExit(3)\n```\n")
    with pytest.raises(subprocess.CalledProcessError):
        subprocess.run([sys.executable, "-c", reach.RUN_DOC, str(doc)], check=True)


class _FakeServer:
    """The ``Popen`` of a server CLI that prints ``lines``, then exits or hangs.

    A hung server's stdout ends only when it is killed; SIGINT stops it.
    """

    def __init__(self, lines, hangs=False):
        self.returncode = None
        self.signals = []
        self.killed = threading.Event()
        self.stdout = self._print(lines, hangs)

    def _print(self, lines, hangs):
        yield from lines
        if hangs:
            assert self.killed.wait(30), "the census never killed a hung server"
        elif self.returncode is None:
            self.returncode = 1

    def send_signal(self, sig):
        self.signals.append(sig)
        self.returncode = 0

    def communicate(self, timeout=None):
        return "", None

    def poll(self):
        return self.returncode

    def wait(self):
        return self.returncode

    def kill(self):
        self.returncode = -signal.SIGKILL
        self.killed.set()


BANNER = (
    "serving on http://127.0.0.1:8123  (input 1x12x12, process backend, workers=1)\n"
)


def _fake_clis(monkeypatch, server, answered=1):
    """Route the census's two CLI launches to fakes; returns their argvs."""
    launched = []

    def popen(argv, **kwargs):
        launched.append(argv)
        return server

    def run(argv, **kwargs):
        assert kwargs["timeout"] > 0
        launched.append(argv)
        return SimpleNamespace(stdout=json.dumps({"ok": answered}))

    monkeypatch.setattr(reach.subprocess, "Popen", popen)
    monkeypatch.setattr(reach.subprocess, "run", run)
    monkeypatch.setattr(reach, "BANNER_SECONDS", 0.5)
    return launched


def test_the_census_drives_the_server_cli_with_flags_both_clis_accept(monkeypatch):
    from repro.serving import loadgen, server

    fake = _FakeServer(["a warning first\n", BANNER])
    launched = _fake_clis(monkeypatch, fake)
    reach._server_cli()
    assert fake.signals == [signal.SIGINT] and not fake.killed.is_set()

    server_argv, loadgen_argv = launched
    assert server_argv[1:3] == ["-m", "repro.serving.server"]
    args = server._build_parser().parse_args(server_argv[3:])
    assert (args.port, args.backend) == (0, "process")
    assert loadgen_argv[1:3] == ["-m", "repro.serving.loadgen"]
    args = loadgen._build_parser().parse_args(loadgen_argv[3:])
    assert (args.host, args.port, args.json) == ("127.0.0.1", 8123, True)


@pytest.mark.parametrize(
    "lines, hangs, answered, error, launches",
    [
        (["Traceback (most recent call last):\n"], False, 1, "exited with 1", 1),
        (["still importing\n"], True, 1, "exited with -9", 1),
        ([BANNER], False, 0, "no answer", 2),
    ],
    ids=["dies before its banner", "hangs before its banner", "predict unanswered"],
)
def test_a_server_cli_that_does_not_serve_fails_the_census_and_is_stopped(
    monkeypatch, lines, hangs, answered, error, launches
):
    fake = _FakeServer(lines, hangs)
    launched = _fake_clis(monkeypatch, fake, answered)
    with pytest.raises(RuntimeError, match=error):
        reach._server_cli()
    assert len(launched) == launches  # the loadgen runs only after the banner
    assert fake.signals == [] and fake.poll() is not None
