"""Stdlib stand-in for the core of ``ruff check``, for hosts without ruff.

``make lint`` runs this only when ``ruff`` is not on ``PATH`` (CI installs
it and keeps the real gate).  Two pyflakes rules that need nothing but
``ast``, over every ``*.py`` under the given directories:

* ``F401`` — an import whose bound name is never read in the module: not
  as a name, not in a quoted annotation, not re-exported through
  ``__all__`` or an ``import x as x`` alias;
* ``F822`` — a name listed in ``__all__`` that the module never binds
  (a module-level ``__getattr__`` or a star import may supply any name, so
  such modules are skipped).

A ``# noqa`` comment on the import's line silences ``F401``, as it does
for ruff.  Usage::

    python -m compileall -q src tests benchmarks tools   # syntax, the first half
    python tools/lint_fallback.py src tests benchmarks tools
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _all_names(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` for every string in a module-level ``__all__``."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for item in getattr(value, "elts", []):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    names.append((item.value, item.lineno))
    return names


def _module_bindings(body: list[ast.stmt]) -> set[str]:
    """Names bound at module level, looking inside ``if`` / ``try`` / ``with``."""
    bound: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        else:
            for child in ast.walk(node):
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                    bound.add(child.id)
            for field in ("body", "orelse", "finalbody", "handlers"):
                for sub in getattr(node, field, []):
                    bound |= _module_bindings(getattr(sub, "body", [sub]))
    return bound


def _names_read(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, quoted annotations included."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation ("BatchRing", "list[Cell] | None"): any
            # string that parses as an expression counts, which can only
            # hide a finding, never invent one
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read


def check(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    exported = _all_names(tree)
    read = _names_read(tree) | {name for name, _ in exported}
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            reexport = alias.asname is not None and alias.asname == alias.name
            if alias.name != "*" and bound not in read and not reexport:
                findings.append(
                    f"{path}:{node.lineno}:{node.col_offset + 1}: "
                    f"F401 `{alias.name}` imported but unused"
                )
    bound = _module_bindings(tree.body)
    star = any(
        isinstance(n, ast.ImportFrom) and any(a.name == "*" for a in n.names)
        for n in tree.body
    )
    if not star and "__getattr__" not in bound:
        findings += [
            f"{path}:{line}:1: F822 undefined name `{name}` in `__all__`"
            for name, line in exported
            if name not in bound
        ]
    return findings


def main(roots: list[str]) -> int:
    findings = []
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            findings += check(path)
    print("\n".join(findings) or "lint fallback: no unused imports, __all__ is defined")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src", "tests", "benchmarks"]))
