"""Every script in ``examples/`` runs to completion.

Each example is copied into a temporary directory and run there in a fresh
interpreter, so whatever it writes next to itself (the generated HLS
project) lands in that directory and not in the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.timeout(180)
@pytest.mark.parametrize(
    "script", sorted(p.name for p in EXAMPLES.glob("*.py")), ids=lambda s: s[:-3]
)
def test_example_runs(script, tmp_path):
    copy = tmp_path / script
    shutil.copy(EXAMPLES / script, copy)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(copy)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-4000:]
