"""Declarative scenario grids: axes in, deterministic cells out.

A :class:`GridSpec` is the experiment analogue of
:class:`~repro.serving.ServingConfig`: a frozen, validated, JSON
round-trippable description of *what to measure* — the cartesian product
of scenario axes, how many replicates of each point to run, and the base
seed the per-cell seeds derive from.  Expanding a spec yields
:class:`Cell` objects whose parameters are plain JSON dicts (they live
in a sqlite row) and whose identity is a content digest of those
parameters, so re-initialising a store from the same spec is idempotent
and extending a grid only adds the new points.

Axes
----
``architectures``
    Model construction: ``{"name", "input_shape", "num_classes",
    "width_multiplier", "num_exits", "mcd_layers_per_exit"}`` — anything
    :func:`repro.nn.architectures.get_architecture` +
    :class:`~repro.core.MultiExitConfig` understand.
``num_samples``
    MC samples per prediction (the paper's S).
``exit_policies``
    ``None`` = full MC sampling; a float in (0, 1) = early-exit
    confidence threshold.
``batchers``
    :class:`~repro.serving.BatcherConfig` field overrides.
``workers`` / ``worker_backends``
    The fleet axes of :class:`~repro.serving.ServingConfig`.
``traffic``
    The load shape: ``{"process": "sequential" | "poisson" | "burst",
    ...}``.  ``sequential`` submits ``num_requests`` examples one at a
    time (closed loop, deterministic batching — the bit-identity
    shape); ``poisson``/``burst`` replay the seeded open-loop arrival
    schedules of :mod:`repro.serving.loadgen`.

Every cell's seed is derived from the spec's ``base_seed`` and the
digest of the cell's **model axes only** (architecture, ``num_samples``,
exit policy), so two runners expanding the same spec agree on every
seed without coordination, replicates of one grid point repeat the
identical seeded workload, and cells that differ only in *execution*
axes (batcher geometry, workers, backend, traffic) serve
the same seeded model.  The runner's sequential bit-identity probe must
therefore hash identically across that whole execution slice — turning
``bit_hash`` into a grid-wide numerics invariant, not just a label.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Mapping

from ..serving.config import WORKER_BACKENDS, BatcherConfig

__all__ = ["Cell", "GridSpec", "GRIDS", "smoke_grid", "paper_grid"]

TRAFFIC_PROCESSES = ("sequential", "poisson", "burst")

#: architecture-axis defaults; each grid entry overrides what it cares about
_ARCH_DEFAULTS: dict[str, Any] = {
    "name": "lenet5",
    "input_shape": (1, 12, 12),
    "num_classes": 5,
    "width_multiplier": 0.5,
    "num_exits": 2,
    "mcd_layers_per_exit": 1,
    "dropout_rate": 0.25,
}

#: traffic-axis defaults (see module docstring for the processes)
_TRAFFIC_DEFAULTS: dict[str, Any] = {
    "process": "sequential",
    "num_requests": 24,
    "rate": 50.0,
    "duration": 1.0,
    "burst_size": 8,
    "max_outstanding": 64,
}


def _canonical(value: Any) -> Any:
    """Normalise params for hashing/storage: tuples->lists, sorted keys."""
    if isinstance(value, Mapping):
        return {key: _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def cell_digest(params: Mapping[str, Any]) -> str:
    """Stable content digest of one cell's parameters (its identity)."""
    blob = json.dumps(_canonical(params), sort_keys=True).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass(frozen=True)
class Cell:
    """One grid point x replicate, ready to be stored and executed.

    ``params`` is a plain JSON-ready dict (``arch``, ``num_samples``,
    ``exit_policy``, ``batcher``, ``workers``, ``worker_backend``,
    ``traffic``, ``replicate``); ``key`` is its
    content digest and ``seed`` the derived per-cell seed.
    """

    key: str
    seed: int
    params: dict[str, Any]

    @property
    def scenario(self) -> str:
        """Compact human-readable label for tables and logs."""
        p = self.params
        arch = p["arch"]
        policy = (
            "mc" if p["exit_policy"] is None else f"ee{p['exit_policy']:g}"
        )
        return (
            f"{arch['name']}-S{p['num_samples']}-{policy}"
            f"-b{p['batcher'].get('max_batch_size', 32)}"
            f"-{p['worker_backend']}{p['workers']}"
            f"-{p['traffic']['process']}"
            f"-r{p['replicate']}"
        )


@dataclass(frozen=True)
class GridSpec:
    """Cartesian product of scenario axes + replicates and seeding."""

    architectures: tuple[Mapping[str, Any], ...] = (dict(_ARCH_DEFAULTS),)
    num_samples: tuple[int, ...] = (8,)
    exit_policies: tuple[float | None, ...] = (None,)
    batchers: tuple[Mapping[str, Any], ...] = ({},)
    workers: tuple[int, ...] = (1,)
    worker_backends: tuple[str, ...] = ("thread",)
    traffic: tuple[Mapping[str, Any], ...] = (dict(_TRAFFIC_DEFAULTS),)
    replicates: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        for axis in (
            "architectures",
            "num_samples",
            "exit_policies",
            "batchers",
            "workers",
            "worker_backends",
            "traffic",
        ):
            if not getattr(self, axis):
                raise ValueError(f"axis {axis!r} must not be empty")
        if self.replicates <= 0:
            raise ValueError("replicates must be positive")
        for s in self.num_samples:
            if s <= 0:
                raise ValueError("num_samples entries must be positive")
        for policy in self.exit_policies:
            if policy is not None and not (0.0 < policy < 1.0):
                raise ValueError("exit policies must be None or in (0, 1)")
        for overrides in self.batchers:
            BatcherConfig(**{**dict(overrides)})  # validates eagerly
        for k in self.workers:
            if k <= 0:
                raise ValueError("workers entries must be positive")
        for backend in self.worker_backends:
            if backend not in WORKER_BACKENDS:
                raise ValueError(
                    f"worker backend must be one of {sorted(WORKER_BACKENDS)}, "
                    f"got {backend!r}"
                )
        for shape in self.traffic:
            process = shape.get("process", "sequential")
            if process not in TRAFFIC_PROCESSES:
                raise ValueError(
                    f"traffic process must be one of "
                    f"{sorted(TRAFFIC_PROCESSES)}, got {process!r}"
                )

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    def cells(self) -> list[Cell]:
        """Expand to one :class:`Cell` per (grid point x replicate)."""
        out: list[Cell] = []
        for arch, s, policy, batcher, k, backend, shape in (
            itertools.product(
                self.architectures,
                self.num_samples,
                self.exit_policies,
                self.batchers,
                self.workers,
                self.worker_backends,
                self.traffic,
            )
        ):
            point = _canonical(
                {
                    "arch": {**_ARCH_DEFAULTS, **dict(arch)},
                    "num_samples": s,
                    "exit_policy": policy,
                    "batcher": dict(batcher),
                    "workers": k,
                    "worker_backend": backend,
                    "traffic": {**_TRAFFIC_DEFAULTS, **dict(shape)},
                }
            )
            model_axes = {
                key: point[key] for key in ("arch", "num_samples", "exit_policy")
            }
            seed = self.cell_seed(cell_digest(model_axes))
            for replicate in range(self.replicates):
                params = dict(point, replicate=replicate)
                out.append(Cell(key=cell_digest(params), seed=seed, params=params))
        return out

    def cell_seed(self, key: str) -> int:
        """Derive a cell's seed from the base seed and a model-axes digest.

        The digest covers only architecture, ``num_samples`` and exit
        policy — not execution axes or the replicate index — so every
        cell serving the same model shares a seed (see module
        docstring: this is what makes ``bit_hash`` comparable across
        backends, worker counts and batcher geometries).
        """
        blob = f"{self.base_seed}:{key}".encode("utf-8")
        return int.from_bytes(
            hashlib.blake2b(blob, digest_size=4).digest(), "big"
        )

    # ------------------------------------------------------------------ #
    # JSON round trip (grid files for the CLI)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return _canonical(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GridSpec":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown GridSpec fields: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        for f in dataclasses.fields(cls):
            if f.name not in payload:
                continue
            value = payload[f.name]
            if f.name in ("replicates", "base_seed"):
                kwargs[f.name] = int(value)
            else:
                kwargs[f.name] = tuple(value)
        return cls(**kwargs)


def _tiny_arch(**overrides: Any) -> dict[str, Any]:
    arch = dict(_ARCH_DEFAULTS)
    arch.update(overrides)
    return arch


def smoke_grid() -> GridSpec:
    """The CI smoke grid: 2x2 (S x batch size), sequential traffic.

    Deliberately small and thread-backed — four cells a 1-core runner
    finishes in seconds — it exists to prove the claim/resume machinery
    end to end, not to measure anything.
    """
    return GridSpec(
        architectures=(_tiny_arch(),),
        num_samples=(4, 8),
        batchers=({"max_batch_size": 8}, {"max_batch_size": 32}),
        traffic=({"process": "sequential", "num_requests": 16},),
    )


def paper_grid() -> GridSpec:
    """A paper-shaped sweep: arch x S x exit policy x backend x traffic."""
    return GridSpec(
        architectures=(
            _tiny_arch(),
            _tiny_arch(name="resnet10", width_multiplier=0.125),
        ),
        num_samples=(4, 10),
        exit_policies=(None, 0.7),
        batchers=({"max_batch_size": 16}, {"max_batch_size": 32}),
        workers=(1, 2),
        worker_backends=("thread", "process"),
        traffic=(
            {"process": "poisson", "rate": 40.0, "duration": 2.0},
            {"process": "burst", "rate": 40.0, "duration": 2.0},
        ),
        replicates=2,
    )


#: named grids the CLI accepts via ``--grid <name>``
GRIDS: dict[str, Any] = {"smoke": smoke_grid, "paper": paper_grid}
