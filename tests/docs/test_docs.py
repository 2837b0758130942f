"""Documentation gate: the docs cannot rot.

Three checks over the tracked markdown documents:

* every relative link (and image) resolves to a file in the repository;
* every fenced ``python`` code block executes.  Blocks in one document
  share a namespace, so later blocks may build on earlier ones exactly as
  a reader would run them top to bottom;
* every ``repro.…`` dotted path in inline code names something that exists,
  so the docs cannot name an API after it is gone.

Shell/text blocks are not executed — put commands in ``bash`` fences.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: documents whose python blocks must execute (the user-facing docs)
EXECUTABLE_DOCS = ["README.md", "docs/architecture.md"]

#: all documents whose links must resolve
LINKED_DOCS = sorted(
    str(p.relative_to(REPO_ROOT))
    for p in list(REPO_ROOT.glob("*.md")) + list((REPO_ROOT / "docs").glob("*.md"))
)

_CODE_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
# [text](target) and ![alt](target), ignoring images-in-links nesting
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_DOTTED_PATH = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")


def _python_blocks(doc: str) -> list[str]:
    return _CODE_BLOCK.findall((REPO_ROOT / doc).read_text(encoding="utf-8"))


def test_documents_exist():
    for doc in EXECUTABLE_DOCS:
        assert (REPO_ROOT / doc).is_file(), f"{doc} is missing"


@pytest.mark.parametrize("doc", EXECUTABLE_DOCS)
def test_doc_code_blocks_execute(doc):
    blocks = _python_blocks(doc)
    assert blocks, f"{doc} has no python examples to verify"
    namespace: dict = {"__name__": f"docs_exec_{doc.replace('/', '_')}"}
    for i, block in enumerate(blocks):
        code = compile(block, f"{doc}[python block {i}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own documentation


@pytest.mark.parametrize("doc", LINKED_DOCS)
def test_relative_links_resolve(doc):
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    base = (REPO_ROOT / doc).parent
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if path and not (base / path).exists():
            broken.append(target)
    assert not broken, f"{doc} has broken relative links: {broken}"


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


@pytest.mark.parametrize("doc", EXECUTABLE_DOCS)
def test_dotted_paths_resolve(doc):
    text = _FENCE.sub("", (REPO_ROOT / doc).read_text(encoding="utf-8"))
    paths = {
        path
        for span in _INLINE_CODE.findall(text)
        for path in _DOTTED_PATH.findall(span)
    }
    assert paths, f"{doc} names no repro.* path"
    broken = sorted(path for path in paths if not _resolves(path))
    assert not broken, f"{doc} names what does not exist: {broken}"
