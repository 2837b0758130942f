"""``tools/lint_fallback.py``: what ``make lint`` runs where ruff is absent."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "lint_fallback", REPO_ROOT / "tools" / "lint_fallback.py"
)
lint_fallback = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_fallback)


def _findings(tmp_path, source: str) -> list[str]:
    path = tmp_path / "module.py"
    path.write_text(source)
    return [f.split(": ", 1)[1] for f in lint_fallback.check(path)]


def test_unused_imports_and_undefined_exports_are_found(tmp_path):
    found = _findings(
        tmp_path,
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json as json\n"
        "from typing import Any, Sequence\n"
        "from collections import deque\n"
        "__all__ = ['deque', 'run', 'missing']\n"
        "def run(xs: 'Sequence[int]') -> None: ...\n",
    )
    assert found == [
        "F401 `os` imported but unused",
        "F401 `Any` imported but unused",
        "F822 undefined name `missing` in `__all__`",
    ]


def test_a_module_getattr_may_supply_any_export(tmp_path):
    source = "__all__ = ['lazy']\ndef __getattr__(name): ...\n"
    assert _findings(tmp_path, source) == []


def test_the_tree_is_clean():
    roots = ("src", "tests", "benchmarks", "tools")
    assert lint_fallback.main([str(REPO_ROOT / d) for d in roots]) == 0
