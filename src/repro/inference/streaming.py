"""Microbatching helpers for high-volume inference workloads.

:func:`iter_microbatches` normalises the two input forms the synchronous
streaming API accepts — a pre-assembled batch array, or an iterable of
single examples — into a stream of ``(batch_size, …)`` arrays, so the
engines can run each microbatch through the folded hot path and keep peak
memory bounded by ``batch_size · num_samples`` activations instead of the
full workload.

Batches built from independent *async* arrivals are the serving tier's job:
:class:`repro.serving.DynamicBatcher` is the one code path that does that.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["iter_microbatches"]


def iter_microbatches(
    inputs: np.ndarray | Iterable[np.ndarray],
    batch_size: int,
) -> Iterator[np.ndarray]:
    """Yield ``(<=batch_size, …)`` batches from an array or example stream.

    Parameters
    ----------
    inputs:
        Either a batch array of shape ``(N, …)`` (sliced into views, no
        copies) or an iterable of per-example arrays of shape ``(…)`` which
        are stacked into fresh batches as they arrive.
    batch_size:
        Maximum rows per yielded batch; the final batch may be smaller.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if isinstance(inputs, np.ndarray):
        for start in range(0, inputs.shape[0], batch_size):
            yield inputs[start : start + batch_size]
        return

    buffer: list[np.ndarray] = []
    for example in inputs:
        buffer.append(np.asarray(example))
        if len(buffer) == batch_size:
            yield np.stack(buffer)
            buffer = []
    if buffer:
        yield np.stack(buffer)

