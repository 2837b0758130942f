"""Sample-folding primitives: run S Monte-Carlo samples as one wide batch.

The accelerator evaluates ``S`` Monte-Carlo samples *spatially* — the cached
deterministic activation is cloned into ``S`` parallel MC engines and the
stochastic suffix is evaluated once (Figure 4 of the paper).  The software
analogue implemented here folds the sample axis into the batch axis: the
first :class:`~repro.nn.layers.MCDropout` layer of the suffix clones the
cached activation of shape ``(N, …)`` into ``(S·N, …)`` under its S masks
(:meth:`~repro.nn.layers.dropout.MCDropout.fold`), and the rest of the
stochastic suffix is evaluated in a single pass, with every later MC-dropout
layer drawing one *independent* mask row per (sample, example) pair.

Bit-exactness contract
----------------------
The folded pass is required to be **bit-identical** to the legacy
one-pass-per-sample loop (the test oracle in
``tests/inference/reference_loops.py``) so that the refactor is
observationally invisible.  Three facts make that possible:

* ``np.random.Generator.random`` fills arrays from the bit stream in row-major
  order, so one draw of shape ``(S·N, …)`` consumes the per-layer RNG stream
  in exactly the same order as ``S`` sequential draws of shape ``(N, …)``.
  Folding the batch sample-major therefore reproduces the legacy masks.
* GEMM results are **not** bit-stable under batch tiling (BLAS picks
  different kernels/blocking for different M).  :class:`Dense` — the
  suffix's classifier — therefore runs as a *stacked* per-sample GEMM with
  the legacy shapes, a ``(S, N, F) @ (F, U)`` matmul dispatched in C
  (:meth:`~repro.nn.layers.dense.Dense.forward_folded`).
* Every other layer runs once per ``(N, …)`` sample slice and the slices
  are concatenated: the legacy per-sample pass, layer by layer, so it is
  exact for any layer kind.  ``np.concatenate`` keeps the slices' memory
  order (a convolution's NCHW view of NHWC memory stays one), so a
  layout-sensitive reduction further on sums in the legacy order too.
* The clone step never materialises an unmasked ``(S·N, …)`` tile: the
  first MC-dropout layer draws its S masks in one call and multiplies the
  ``(N, …)`` prefix into them broadcast over S, which is the same multiply,
  element for element and in the same memory order, as masking the tile.
"""

from __future__ import annotations

import numpy as np

from ..nn.context import ForwardContext, resolve_context
from ..nn.layers import Dense, MCDropout
from ..nn.layers.activations import softmax
from ..nn.model import Network

__all__ = [
    "unfold_samples",
    "folded_forward_range",
    "sample_suffix",
]


def unfold_samples(y: np.ndarray, num_samples: int) -> np.ndarray:
    """The sample-major ``(S·N, …)`` fold split back into ``(S, N, …)``."""
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if y.shape[0] % num_samples:
        raise ValueError(
            f"folded batch of {y.shape[0]} rows is not divisible by "
            f"num_samples={num_samples}"
        )
    return y.reshape((num_samples, y.shape[0] // num_samples) + y.shape[1:])


def folded_forward_range(
    network: Network,
    x: np.ndarray,
    num_samples: int,
    start: int,
    stop: int,
    ctx: ForwardContext | None = None,
) -> np.ndarray:
    """Run layers ``[start, stop)`` of ``network`` on a sample-folded batch.

    ``x`` must already be folded to the sample-major ``(S·N, …)``: row
    ``s·N + n`` is example ``n`` of sample ``s``.  The result is
    bit-identical to evaluating the range once per sample on the ``(N, …)``
    batch: MC-dropout masks the fold, :class:`Dense` runs its stacked
    per-sample GEMM, and every other layer runs once per sample slice.
    ``ctx`` supplies the MCD mask streams (and receives the layer caches);
    concurrent callers over the same network must each pass their own.
    """
    if not network.built:
        raise RuntimeError("network must be built before folded evaluation")
    if not 0 <= start <= stop <= len(network.layers):
        raise IndexError(
            f"invalid layer range [{start}, {stop}) for {len(network.layers)} layers"
        )
    if x.shape[0] % num_samples:
        raise ValueError(
            f"folded batch of {x.shape[0]} rows is not divisible by "
            f"num_samples={num_samples}"
        )
    ctx = resolve_context(ctx)
    out = x
    for layer in network.layers[start:stop]:
        if isinstance(layer, MCDropout):
            out = layer.fold(out, 1, ctx)
        elif isinstance(layer, Dense):
            out = layer.forward_folded(out, num_samples)
        else:
            out = np.concatenate(
                [
                    layer.forward(part, training=False, ctx=ctx)
                    for part in unfold_samples(out, num_samples)
                ]
            )
    return out


def sample_suffix(
    network: Network,
    prefix: np.ndarray,
    split: int,
    num_samples: int,
    ctx: ForwardContext | None = None,
) -> np.ndarray:
    """``num_samples`` MC softmax samples of ``network``, shape ``(S, N, classes)``.

    ``prefix`` is the ``(N, …)`` output of layers ``[0, split)``, computed
    once by the caller; :class:`~repro.inference.InferenceEngine` passes
    each exit head with its deterministic head prefix.  Layer ``split`` —
    the first MC-dropout layer — folds it ``S`` times under its masks, and
    layers ``(split, end)`` run on the fold in one pass: the accelerator's
    clone step followed by its parallel MC engines.  A network with no
    layer from ``split`` on (no stochastic layer) returns ``S`` copies of
    one softmax.
    """
    layers = network.layers
    if split >= len(layers):
        return np.stack([softmax(prefix, axis=-1)] * num_samples)
    if not isinstance(layers[split], MCDropout):
        raise TypeError(
            f"layer {split} ({type(layers[split]).__name__}) starts the "
            "stochastic suffix but is not an MCDropout"
        )
    ctx = resolve_context(ctx)
    folded = layers[split].fold(prefix, num_samples, ctx)
    logits = folded_forward_range(
        network, folded, num_samples, split + 1, len(layers), ctx=ctx
    )
    return unfold_samples(softmax(logits, axis=-1), num_samples)
