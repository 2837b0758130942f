"""The paper drivers' outputs are pinned: each has fixed bytes.

The digests are sha256 over ``json.dumps(out, sort_keys=True,
default=repr)`` of each driver called with its defaults.  These five train
nothing and run no BLAS reduction, so the digests do not depend on the
platform.  Any change that moves one figure of Table II, Table III,
Figure 5 or the FLOP-reduction table fails here.
"""

import hashlib
import json

import pytest

from repro.analysis import paper

DIGESTS = {
    "run_table2": "bb48a46de46143dd6efb0080f35303b21356037d7e8b210b095a61391d6e8897",
    "run_table3": "0b256fe9977cabc51bab12329bc1b1ea816c829a7c7e178660b2772f2ef8a5a3",
    "run_figure5_resources": (
        "b4eceafa950d8ccf0ee1fc83b9713aefa387452d102cda750f67d0b68fa81e3e"
    ),
    "run_figure5_latency": (
        "ab29398a6d93855c5cffe72651ed92c027738ba9388a65fa26f9e42b030de280"
    ),
    "run_flops_reduction": (
        "d992901119c17bc5e4010cfd4b680b7889b43e4b2675f63646a10288e19bf702"
    ),
}


@pytest.mark.parametrize("driver", sorted(DIGESTS))
def test_paper_driver_output_is_pinned(driver):
    out = getattr(paper, driver)()
    text = json.dumps(out, sort_keys=True, default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[driver]
