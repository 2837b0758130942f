"""Grid expansion: axes, seeds, replicates, digests, round trips."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.grid import GRIDS, Cell, GridSpec, cell_digest, smoke_grid


def test_cartesian_expansion_counts():
    spec = GridSpec(
        num_samples=(4, 8),
        batchers=({"max_batch_size": 8}, {"max_batch_size": 32}),
        workers=(1, 2),
        replicates=3,
    )
    cells = spec.cells()
    assert len(cells) == 2 * 2 * 2 * 3
    assert len({cell.key for cell in cells}) == len(cells), "keys must be unique"


def test_replicates_share_seed_and_differ_in_key():
    spec = GridSpec(replicates=3)
    cells = spec.cells()
    assert len(cells) == 3
    assert len({cell.seed for cell in cells}) == 1
    assert len({cell.key for cell in cells}) == 3
    assert [cell.params["replicate"] for cell in cells] == [0, 1, 2]


def test_seed_ignores_execution_axes():
    """Cells differing only in execution axes serve the same seeded model."""
    spec = GridSpec(
        workers=(1, 2),
        worker_backends=("thread", "process"),
        batchers=({"max_batch_size": 8}, {"max_batch_size": 32}),
        traffic=(
            {"process": "sequential", "num_requests": 4},
            {"process": "poisson"},
        ),
    )
    assert len({cell.seed for cell in spec.cells()}) == 1


def test_seed_tracks_model_axes():
    seeds = {cell.seed for cell in GridSpec(num_samples=(2, 4, 8)).cells()}
    assert len(seeds) == 3
    base0 = GridSpec().cells()[0].seed
    base1 = GridSpec(base_seed=1).cells()[0].seed
    assert base0 != base1


def test_expansion_is_deterministic():
    a = GridSpec(num_samples=(4, 8), replicates=2).cells()
    b = GridSpec(num_samples=(4, 8), replicates=2).cells()
    assert [(c.key, c.seed, c.params) for c in a] == [
        (c.key, c.seed, c.params) for c in b
    ]


def test_digest_canonicalises_order_and_tuples():
    assert cell_digest({"a": 1, "b": (1, 2)}) == cell_digest({"b": [1, 2], "a": 1})
    assert cell_digest({"a": 1}) != cell_digest({"a": 2})


def test_json_round_trip():
    spec = GridSpec(
        num_samples=(4, 8),
        exit_policies=(None, 0.7),
        replicates=2,
        base_seed=7,
    )
    rebuilt = GridSpec.from_dict(dataclasses.asdict(spec))
    assert [c.key for c in rebuilt.cells()] == [c.key for c in spec.cells()]
    with pytest.raises(ValueError, match="unknown GridSpec fields"):
        GridSpec.from_dict({"nope": 1})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(num_samples=()), "must not be empty"),
        (dict(replicates=0), "replicates"),
        (dict(num_samples=(0,)), "num_samples"),
        (dict(exit_policies=(1.5,)), "exit policies"),
        (dict(worker_backends=("gpu",)), "worker backend"),
        (dict(traffic=({"process": "avalanche"},)), "traffic process"),
        (dict(batchers=({"max_batch_size": -1},)), "max_batch_size"),
    ],
)
def test_validation_rejects_bad_axes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GridSpec(**kwargs)


def test_scenario_labels_are_compact_and_distinct():
    cells = GridSpec(num_samples=(4, 8), exit_policies=(None, 0.7)).cells()
    labels = {cell.scenario for cell in cells}
    assert len(labels) == 4
    assert any("-mc-" in label for label in labels)
    assert any("-ee0.7-" in label for label in labels)


def test_named_grids_expand():
    assert set(GRIDS) >= {"smoke", "paper"}
    smoke = smoke_grid().cells()
    assert len(smoke) == 4, "the CI smoke grid is a 2x2"
    assert all(c.params["traffic"]["process"] == "sequential" for c in smoke)
    for name, factory in GRIDS.items():
        assert factory().cells(), f"grid {name} expanded to nothing"


def test_cell_is_storable():
    cell = GridSpec().cells()[0]
    clone = Cell(key=cell.key, seed=cell.seed, params=dict(cell.params))
    assert clone.scenario == cell.scenario
