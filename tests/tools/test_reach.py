"""``tools/reach.py``: the census behind ``make reach``."""

from __future__ import annotations

import importlib.util
import textwrap
import threading
from pathlib import Path

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


def test_census_tells_entered_functions_from_never_entered_ones(tmp_path):
    path = tmp_path / "census_target.py"
    path.write_text(MODULE)
    found = reach.functions(tmp_path)
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

    spec = importlib.util.spec_from_file_location("census_target", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def entry():
        module.called()
        module.decorated()
        module.Box().used()
        worker = threading.Thread(target=module.in_thread)
        worker.start()
        worker.join()

    rows = reach.table(found, reach.entered_keys(reach.census([("entry", entry)])))
    assert rows[0].split() == ["status", "lines", "function"]
    status = {row.split()[-1]: row.split()[0] for row in rows[1:-1]}
    assert status == {
        "called": "entered",
        "helper": "entered",
        "decorated": "entered",
        "Box.used": "entered",
        "Box.unused": "never",
        "in_thread": "entered",
        "never": "never",
        "never.<locals>.inner": "never",
    }
    assert rows[-1] == "total: 8 functions; entered 5 (10 lines); never 3 (9 lines)"
