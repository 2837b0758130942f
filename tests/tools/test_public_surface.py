"""Each eagerly-imported package exports exactly the names it defines.

A name left in ``__all__`` after its module was deleted or moved, or a
public name imported into the package but not exported, fails here at
import speed instead of in whichever test happens to use it.
(``repro.serving`` resolves its exports lazily through ``__getattr__``,
so its namespace is not a list of what it exports; it is not checked.)
"""

from __future__ import annotations

import importlib
import types

import pytest


def _public_names(module: types.ModuleType) -> set[str]:
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


@pytest.mark.parametrize(
    "package",
    [
        "repro.inference",
        "repro.experiments",
        "repro.serving.workers",
        "repro.core",
        "repro.nn.layers",
        "repro.nn.architectures",
        "repro.analysis",
        "repro.uncertainty",
        "repro.hw.hls",
        "repro.quantization",
        "repro.datasets",
    ],
)
def test_all_is_exactly_the_package_namespace(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) == _public_names(module)
