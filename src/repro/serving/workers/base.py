"""What a batch computes, shared by the thread and process backends.

The serving tier separates *what a batch computes* from *where it runs*:

* :func:`compute_batch_array` — the one compute entry point: runs an
  assembled ``(N, *input_shape)`` batch through the folded MC hot path (or
  the active-set early-exit path) on one engine under a fresh
  :class:`~repro.nn.context.ForwardContext` spawned from the batch sequence
  number.  It returns plain arrays (:class:`BatchOutput`), so the result
  can cross a process boundary.
* :func:`assemble_results` — the one disassembly: turns those arrays into
  the per-request :class:`~repro.uncertainty.metrics.UncertaintyResult`
  objects.

Both backends run the *same two functions* — a thread replica calls them
back-to-back on a worker thread, a process replica calls the first in its
worker process and the second on the receiving thread.  Responses are
therefore **bit-identical across backends** (and across worker counts,
by the spawn-key rule) whenever batch formation is identical.  Where a
batch runs — which replica, what happens when it dies, how the fleet
heals and swaps models — is :mod:`repro.serving.workers.roster`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...inference.engine import InferenceEngine
from ...nn.context import ForwardContext
from ...uncertainty.metrics import (
    UncertaintyResult,
    mc_uncertainty_results,
    predictive_entropy,
)

__all__ = [
    "RESPONSE_LAYOUTS",
    "BatchOutput",
    "WorkerCrashed",
    "assemble_results",
    "compute_batch_array",
    "response_specs",
]


class WorkerCrashed(RuntimeError):
    """No live worker is left to serve a batch.

    Individual worker deaths are absorbed: the dead worker's in-flight
    batch is retried on a live sibling and the death is surfaced in
    ``ServingStats.worker_crashes``.  This error reaches callers only when
    *every* worker of the pool has died (thread replicas cannot).
    """


#: The two forms a batch's results take, declared once: per array the
#: :class:`BatchOutput` field it fills, its dtype and its axes (``S`` MC
#: samples, ``N`` rows of the batch, ``C`` classes), in the order a transport
#: carries them.  Ring-slot sizing, the worker's encode and the parent's
#: decode all read this table.
RESPONSE_LAYOUTS: dict[str, tuple[tuple[str, type, str], ...]] = {
    "mc": (("sample_probs", np.float64, "SNC"),),
    "early_exit": (("probs", np.float64, "NC"), ("exit_indices", np.int64, "N")),
}


def response_specs(
    layout: str, samples: int, rows: int, classes: int
) -> list[tuple[tuple[int, ...], type]]:
    """``(shape, dtype)`` of each array of ``layout`` for a batch of ``rows``."""
    size = {"S": samples, "N": rows, "C": classes}
    return [
        (tuple(size[axis] for axis in axes), dtype)
        for _, dtype, axes in RESPONSE_LAYOUTS[layout]
    ]


@dataclass
class BatchOutput:
    """Raw per-batch arrays, cheap to pickle across a process boundary.

    Exactly one of the two :data:`RESPONSE_LAYOUTS` is populated:
    ``sample_probs`` in MC-sampling mode, or ``probs`` plus
    ``exit_indices`` in early-exit mode.
    """

    sample_probs: np.ndarray | None = None
    probs: np.ndarray | None = None
    exit_indices: np.ndarray | None = None

    def arrays(self) -> tuple[str, list[np.ndarray]]:
        """``(layout, its arrays in order)``: what a transport carries."""
        layout = "mc" if self.sample_probs is not None else "early_exit"
        return layout, [getattr(self, name) for name, _, _ in RESPONSE_LAYOUTS[layout]]

    @classmethod
    def from_arrays(cls, layout: str, arrays: list[np.ndarray]) -> "BatchOutput":
        """Inverse of :meth:`arrays`."""
        names = (name for name, _, _ in RESPONSE_LAYOUTS[layout])
        return cls(**dict(zip(names, arrays)))


def compute_batch_array(
    engine: InferenceEngine,
    seq: int,
    batch: np.ndarray,
    num_samples: int | None,
    early_exit_threshold: float | None,
) -> BatchOutput:
    """Run one assembled batch on one engine; returns raw arrays only.

    The fresh per-batch context spawns every dropout stream from
    ``(layer seed, seq)``, so the output depends only on the batch's
    position in the request sequence — never on which worker (thread *or*
    process) computes it or what that worker served before.
    """
    ctx = ForwardContext(spawn_key=seq)
    if early_exit_threshold is not None:
        res = engine.early_exit_predict(batch, early_exit_threshold, ctx=ctx)
        return BatchOutput(probs=res.probs, exit_indices=res.exit_indices)
    pred = engine.predict_mc(batch, num_samples, ctx=ctx)
    return BatchOutput(sample_probs=pred.sample_probs)


def assemble_results(out: BatchOutput) -> list[UncertaintyResult]:
    """Split a batch's raw arrays into one ``UncertaintyResult`` per request.

    The results alias nothing of ``out``: MC results derive fresh arrays
    from ``sample_probs`` and the early-exit rows are views of a copy — so
    ``out`` may be views of reusable storage (a ring slot).
    """
    if out.sample_probs is not None:
        return mc_uncertainty_results(out.sample_probs)
    probs = out.probs.copy()
    entropy = predictive_entropy(probs)
    return [
        UncertaintyResult(
            probs=probs[i],
            label=int(probs[i].argmax()),
            confidence=float(probs[i].max()),
            entropy=float(entropy[i]),
            exit_index=int(out.exit_indices[i]),
        )
        for i in range(probs.shape[0])
    ]
