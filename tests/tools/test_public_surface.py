"""Each eagerly-imported package exports exactly the names it defines.

A name left in ``__all__`` after its module was deleted or moved, or a
public name imported into the package but not exported, fails here at
import speed instead of in whichever test happens to use it.
``repro.serving`` resolves its CLI-backed exports lazily through
``__getattr__``, so its check adds ``_LAZY_EXPORTS`` to the eager names.
Exported submodules (``repro.nn.layers``, ``repro.hw.hls``) are left out
of the comparison, as they are of the namespace.
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
        "repro.nn",
        "repro.hw",
    ],
)
def test_all_is_exactly_the_package_namespace(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    exported = {
        name
        for name in module.__all__
        if not isinstance(getattr(module, name), types.ModuleType)
    }
    assert exported == _public_names(module)


def test_serving_exports_its_eager_names_and_its_lazy_ones():
    serving = importlib.import_module("repro.serving")
    lazy = set(serving._LAZY_EXPORTS)
    # a lazy name lands in the namespace once something has resolved it
    eager = _public_names(serving) - lazy
    assert len(set(serving.__all__)) == len(serving.__all__)
    assert set(serving.__all__) == eager | lazy
    for name in serving.__all__:
        assert getattr(serving, name) is not None
