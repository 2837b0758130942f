"""Sample-folding primitives: run S Monte-Carlo samples as one wide batch.

The accelerator evaluates ``S`` Monte-Carlo samples *spatially* — the cached
deterministic activation is cloned into ``S`` parallel MC engines and the
stochastic suffix is evaluated once (Figure 4 of the paper).  The software
analogue implemented here folds the sample axis into the batch axis: the
cached activation of shape ``(N, …)`` is tiled to ``(S·N, …)`` and the
stochastic suffix is evaluated in a single pass, with every
:class:`~repro.nn.layers.MCDropout` layer drawing one *independent* mask row
per (sample, example) pair.

Bit-exactness contract
----------------------
The folded pass is required to be **bit-identical** to the legacy
one-pass-per-sample loop (the test oracle in
``tests/inference/reference_loops.py``) so that the refactor is
observationally invisible.  Three facts make that possible:

* ``np.random.Generator.random`` fills arrays from the bit stream in row-major
  order, so one draw of shape ``(S·N, …)`` consumes the per-layer RNG stream
  in exactly the same order as ``S`` sequential draws of shape ``(N, …)``.
  Tiling the batch sample-major therefore reproduces the legacy masks.
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
  deterministic prefix plan of :mod:`repro.inference.plan` shares).  Any
  remaining parameterised layer (custom layers) falls back to a per-slice
  loop.
* An :class:`MCDropout` directly feeding a :class:`Dense` runs as a **fused
  stochastic-suffix kernel**: the scaled keep-mask is drawn once (same RNG
  consumption as the standalone layer) and folded into the GEMM operand one
  sample block at a time, so the masked ``(S·N, F)`` intermediate is never
  materialised.  Every element still sees the identical multiply and the
  identical per-sample GEMM shape, so the fusion stays inside the bit-
  exactness contract (see :meth:`~repro.nn.layers.dense.Dense.forward_folded`).
"""

from __future__ import annotations

import numpy as np

from ..nn.context import ForwardContext, resolve_context
from ..nn.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    MCDropout,
    ReLU,
    ResidualBlock,
    Softmax,
)
from ..nn.layers.base import Layer
from ..nn.model import Network

__all__ = [
    "ROWWISE_LAYERS",
    "fold_batch",
    "unfold_samples",
    "folded_forward_range",
]

#: Layers whose forward pass treats every batch row independently with
#: identical per-row arithmetic — safe to evaluate on the flat fold.
#: ``MCDropout`` belongs here by construction: its mask draw on the folded
#: batch consumes the per-layer RNG stream exactly like S sequential draws.
ROWWISE_LAYERS: tuple[type[Layer], ...] = (
    ReLU,
    Softmax,
    Flatten,
    MaxPool2D,
    AvgPool2D,
    GlobalAvgPool2D,
    BatchNorm,
    Dropout,
    MCDropout,
)


def fold_batch(x: np.ndarray, num_samples: int) -> np.ndarray:
    """Tile a batch ``(N, …)`` sample-major into ``(S·N, …)``.

    Row ``s·N + n`` of the result is example ``n`` of Monte-Carlo sample
    ``s`` — the clone step of the accelerator's spatial mapping.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    return np.tile(x, (num_samples,) + (1,) * (x.ndim - 1))


def unfold_samples(y: np.ndarray, num_samples: int) -> np.ndarray:
    """Inverse of :func:`fold_batch` on the output: ``(S·N, …) -> (S, N, …)``."""
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if y.shape[0] % num_samples:
        raise ValueError(
            f"folded batch of {y.shape[0]} rows is not divisible by "
            f"num_samples={num_samples}"
        )
    return y.reshape((num_samples, y.shape[0] // num_samples) + y.shape[1:])


def _sliced_forward(
    layer: Layer, x: np.ndarray, num_samples: int, ctx: ForwardContext
) -> np.ndarray:
    """Evaluate a layer one sample-slice at a time (always bit-exact)."""
    n = x.shape[0] // num_samples
    return np.concatenate(
        [
            layer.forward(x[s * n : (s + 1) * n], training=False, ctx=ctx)
            for s in range(num_samples)
        ],
        axis=0,
    )


def folded_forward_range(
    network: Network,
    x: np.ndarray,
    num_samples: int,
    start: int,
    stop: int,
    ctx: ForwardContext | None = None,
) -> np.ndarray:
    """Run layers ``[start, stop)`` of ``network`` on a sample-folded batch.

    ``x`` must already be folded to ``(S·N, …)`` (see :func:`fold_batch`).
    The result is bit-identical to evaluating the range once per sample on
    the ``(N, …)`` batch.
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
    layers = network.layers
    out = x
    i = start
    while i < stop:
        layer = layers[i]
        # Fused stochastic suffix: an MCDropout feeding a Dense folds its
        # scaled mask straight into the GEMM operand — the (S·N, F) masked
        # intermediate is never materialised.  The mask draw and every
        # arithmetic step match the unfused pair bit for bit (see
        # Dense.forward_folded), so the fusion is observationally invisible.
        if (
            isinstance(layer, MCDropout)
            and layer.rate > 0.0
            and i + 1 < stop
            and isinstance(layers[i + 1], Dense)
            and out.ndim == 2
        ):
            scaled = layer.folded_scaled_mask(out, ctx)
            out = layers[i + 1].forward_folded(out, num_samples, scaled_mask=scaled)
            i += 2
            continue
        if isinstance(layer, ROWWISE_LAYERS):
            out = layer.forward(out, training=False, ctx=ctx)
        elif isinstance(layer, Dense):
            out = layer.forward_folded(out, num_samples)
        elif isinstance(layer, Conv2D):
            out = layer.forward_folded(out, num_samples)
        elif isinstance(layer, ResidualBlock):
            out = layer.forward_folded(out, num_samples)
        else:
            out = _sliced_forward(layer, out, num_samples, ctx)
        i += 1
    return out
