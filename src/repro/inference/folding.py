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
* Row-wise layers (activations, pooling, dropout masking, reshapes,
  inference-mode batch norm) compute each batch row independently, so they
  are bit-stable under batch tiling.
* GEMM-backed layers are **not** bit-stable under batch tiling (BLAS picks
  different kernels/blocking for different M), so they are evaluated as
  *stacked* per-sample GEMMs with the legacy shapes, dispatched in C:
  :class:`Dense` as a ``(S, N, F) @ (F, U)`` matmul, :class:`Conv2D` via
  :meth:`~repro.nn.layers.conv.Conv2D.forward_folded` (the folded im2col
  column matrix reshaped to ``(S, N·oh·ow, C·kh·kw)`` — im2col is a pure
  gather, so the fold is exactly the per-slice column matrices stacked,
  in the memory order :func:`~repro.nn.tensor.im2col` guarantees),
  and :class:`ResidualBlock` by folding each constituent convolution the
  same way and applying batch norm, ReLU and the residual add in place on
  the convolution outputs
  (:meth:`~repro.nn.layers.ResidualBlock.forward_inference`, which the
  deterministic prefix plan of :mod:`repro.inference.plan` shares).  A
  layer kind outside this vocabulary is refused with a ``TypeError``.
* The clone step never materialises an unmasked ``(S·N, …)`` tile: the
  first MC-dropout layer draws its S masks in one call and multiplies the
  ``(N, …)`` prefix into them broadcast over S, which is the same multiply,
  element for element and in the same memory order, as masking the tile.
"""

from __future__ import annotations

import numpy as np

from ..nn.context import ForwardContext, resolve_context
from ..nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    MCDropout,
    ReLU,
    ResidualBlock,
)
from ..nn.layers.activations import softmax
from ..nn.layers.base import Layer
from ..nn.model import Network

__all__ = [
    "ROWWISE_LAYERS",
    "unfold_samples",
    "folded_forward_range",
    "sample_suffix",
]

#: Layers whose forward pass treats every batch row independently with
#: identical per-row arithmetic — safe to evaluate on the flat fold.
ROWWISE_LAYERS: tuple[type[Layer], ...] = (
    ReLU,
    Flatten,
    MaxPool2D,
    GlobalAvgPool2D,
    BatchNorm,
)


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
    batch.  A layer outside the library's vocabulary raises ``TypeError``.
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
        elif isinstance(layer, ROWWISE_LAYERS):
            out = layer.forward(out, training=False, ctx=ctx)
        elif isinstance(layer, (Dense, Conv2D, ResidualBlock)):
            out = layer.forward_folded(out, num_samples)
        else:
            raise TypeError(
                f"{type(layer).__name__} has no folded evaluation: "
                "sample folding covers the library's layer kinds only"
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
