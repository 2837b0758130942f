"""ExperimentRunner: claim-execute-record loop + one real serving cell."""

from __future__ import annotations

import pytest

from repro.experiments.grid import GridSpec
from repro.experiments.runner import ExperimentRunner, run_cell, runner_fingerprint
from repro.experiments.store import ResultsStore


def _grid_store(tmp_path, spec=None):
    store = ResultsStore(tmp_path / "grid.sqlite")
    spec = spec or GridSpec(num_samples=(2, 4), replicates=2)
    store.ensure_cells(spec.cells())
    return store


def test_runner_drains_grid_with_stub_execution(tmp_path):
    store = _grid_store(tmp_path)
    executed: list[int] = []

    def execute(params, seed):
        executed.append(seed)
        return {"throughput_rps": float(params["num_samples"])}

    summary = ExperimentRunner(store, runner_id="r1", execute=execute).run()
    assert (summary.claimed, summary.done, summary.failed) == (4, 4, 0)
    assert len(executed) == 4
    assert store.counts()["done"] == 4
    assert all(status == "done" for _, status in summary.cells)


def test_failed_cell_is_recorded_and_loop_continues(tmp_path):
    store = _grid_store(tmp_path)

    def execute(params, seed):
        if params["num_samples"] == 2:
            raise RuntimeError("cell exploded")
        return {"ok": 1.0}

    summary = ExperimentRunner(store, runner_id="r1", execute=execute).run()
    assert summary.failed == 2 and summary.done == 2
    failed = store.cells("failed")
    assert len(failed) == 2
    assert all("cell exploded" in row.error for row in failed)
    # retry after reset hits only the failed cells
    store.reset_failed()
    retry = ExperimentRunner(
        store, runner_id="r2", execute=lambda p, s: {"ok": 2.0}
    ).run()
    assert retry.claimed == 2
    assert store.counts()["done"] == 4


def test_max_cells_bounds_one_invocation(tmp_path):
    store = _grid_store(tmp_path)
    runner = ExperimentRunner(store, runner_id="r1", execute=lambda p, s: {})
    first = runner.run(max_cells=1)
    assert first.claimed == 1
    assert store.counts()["pending"] == 3


def test_resume_after_crash_skips_done_cells(tmp_path):
    """The SIGKILL scenario: done cells stay done, orphans return to the pool."""
    store = _grid_store(tmp_path)
    executions: list[str] = []

    def execute(params, seed):
        executions.append(f"S{params['num_samples']}-r{params['replicate']}")
        return {"ok": 1.0}

    # first runner finishes two cells, then "dies" holding a claim
    ExperimentRunner(store, runner_id="r1", execute=execute).run(max_cells=2)
    orphan = store.claim("r1")  # claimed but never finished: the kill point
    assert store.counts() == {"pending": 1, "running": 1, "done": 2, "failed": 0}

    # a re-invocation reclaims the orphan and completes only the remainder
    assert store.reset_running() == 1
    resumed = ExperimentRunner(store, runner_id="r2", execute=execute).run()
    assert resumed.claimed == 2, "resume must not recompute the two done cells"
    assert store.counts()["done"] == 4
    assert len(executions) == 4, "every cell executed exactly once overall"
    assert orphan.key in {row.key for row in store.cells("done")}


def test_two_runners_split_one_grid(tmp_path):
    store = _grid_store(tmp_path)
    a = ExperimentRunner(store, runner_id="a", execute=lambda p, s: {}).run(
        max_cells=2
    )
    b = ExperimentRunner(store, runner_id="b", execute=lambda p, s: {}).run()
    assert a.claimed == 2 and b.claimed == 2
    assert store.counts()["done"] == 4


def test_summary_to_dict_is_json_shaped(tmp_path):
    store = _grid_store(tmp_path, GridSpec())
    summary = ExperimentRunner(store, runner_id="r", execute=lambda p, s: {}).run()
    payload = summary.to_dict()
    assert payload["claimed"] == 1 and payload["runner_id"] == "r"
    assert payload["cells"][0][1] == "done"


def test_runner_fingerprint_shape():
    fingerprint = runner_fingerprint()
    assert fingerprint.count("-") >= 2
    assert fingerprint.rsplit("cpu", 1)[1].isdigit()


# ---------------------------------------------------------------------- #
# one real cell through the serving stack (small on purpose)
# ---------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_real_cell_execution_records_serving_metrics(tmp_path):
    spec = GridSpec(
        num_samples=(2,),
        traffic=({"process": "sequential", "num_requests": 6},),
    )
    store = ResultsStore(tmp_path / "grid.sqlite")
    store.ensure_cells(spec.cells())
    summary = ExperimentRunner(store, runner_id="real").run()
    assert (summary.done, summary.failed) == (1, 0)
    [result] = store.results()
    metrics = result["metrics"]
    assert metrics["ok"] == 6 and metrics["failed"] == 0
    assert metrics["throughput_rps"] > 0
    assert metrics["latency_p50_s"] <= metrics["latency_p99_s"]
    assert len(metrics["bit_hash"]) == 16
    assert result["runner_fingerprint"]


@pytest.mark.timeout(120)
def test_real_cell_bit_hash_is_reproducible():
    """Same params + seed => bit-identical probe, wherever it runs."""
    params = GridSpec(
        num_samples=(2,),
        traffic=({"process": "sequential", "num_requests": 2},),
    ).cells()[0]
    first = run_cell(params.params, params.seed)
    second = run_cell(params.params, params.seed)
    assert first["bit_hash"] == second["bit_hash"]
