"""The reporting `_meta` merge contract: first timestamp survives, fingerprint lands.

``reporting.flush()`` merges into an existing ``BENCH_serving.json``:
``_meta.generated_at`` is the *first* flush into the file (so a long-lived
artifact shows its true age), ``updated_at`` tracks the latest, and
``runner_fingerprint`` identifies the hardware class the numbers were
measured on — the same stamp the experiment grid's store rows carry.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import reporting
from repro.experiments import runner_fingerprint


@pytest.fixture()
def clean_registry():
    """Isolate the module-level results registry around each test."""
    saved = dict(reporting._RESULTS)
    reporting._RESULTS.clear()
    try:
        yield reporting._RESULTS
    finally:
        reporting._RESULTS.clear()
        reporting._RESULTS.update(saved)


def _flush(tmp_path, **metrics):
    for name, values in metrics.items():
        reporting.record(name, **values)
    path = reporting.flush(tmp_path)
    reporting._RESULTS.clear()
    return json.loads(path.read_text(encoding="utf-8"))


def test_generated_at_survives_merges(tmp_path, clean_registry):
    first = _flush(tmp_path, suite_a={"throughput_rps": 1.0})
    second = _flush(tmp_path, suite_b={"throughput_rps": 2.0})
    assert second["_meta"]["generated_at"] == first["_meta"]["generated_at"]
    assert second["_meta"]["updated_at"] >= second["_meta"]["generated_at"]
    # both suites' sections merged into one artifact
    assert second["suite_a"] == {"throughput_rps": 1.0}
    assert second["suite_b"] == {"throughput_rps": 2.0}


def test_meta_carries_runner_fingerprint(tmp_path, clean_registry):
    payload = _flush(tmp_path, suite={"throughput_rps": 1.0})
    assert payload["_meta"]["runner_fingerprint"] == runner_fingerprint()


def test_corrupt_meta_starts_fresh(tmp_path, clean_registry):
    (tmp_path / reporting.RESULTS_FILENAME).write_text(
        json.dumps({"_meta": "not-a-dict", "old": {"kept": 1}})
    )
    payload = _flush(tmp_path, suite={"throughput_rps": 1.0})
    assert isinstance(payload["_meta"], dict)
    assert payload["_meta"]["generated_at"]
    assert payload["old"] == {"kept": 1}, "other sections still merge"
