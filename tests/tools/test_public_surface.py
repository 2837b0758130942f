"""``repro.inference`` exports exactly the names it defines.

A name left in ``__all__`` after its module was deleted or moved, or a
public name imported into the package but not exported, fails here at
import speed instead of in whichever test happens to use it.
"""

from __future__ import annotations

import types

import repro.inference as inference


def _public_names(module: types.ModuleType) -> set[str]:
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_inference_all_is_exactly_the_package_namespace():
    assert len(set(inference.__all__)) == len(inference.__all__)
    assert set(inference.__all__) == _public_names(inference)

