"""Static plan for the deterministic prefix.

The accelerator computes the un-sampled prefix of the network once per
input and emits *one fixed dataflow with static buffers* for it.  The
layer-by-layer software prefix instead rebuilt every buffer on every batch:
per convolution a padded copy of the input, a patch tensor, a transposed
copy of that, and per BatchNorm/ReLU four more full-size temporaries —
about 60 % of ``conv_mc``'s backbone time was data movement around ≈1.5 ms
of GEMMs.  A :class:`PrefixPlan` is the software analogue of the fixed
dataflow: compiled once from a network's layer list, it runs

* ``Conv2D → [BatchNorm] → [ReLU]``,
* :class:`~repro.nn.layers.ResidualBlock` (main branch, projection
  shortcut, residual add, final ReLU) and
* :class:`~repro.nn.layers.MaxPool2D`

on NHWC-resident ``(N·oh·ow, C)`` matrices: the GEMM output *is* the
activation, handed on as its NCHW view.  Every convolution gathers its
columns (the one :func:`~repro.nn.tensor.im2col`) into **one**
:class:`~repro.nn.tensor.ColumnArena` owned by the plan; bias, BatchNorm
(:meth:`~repro.nn.layers.BatchNorm.normalize_`), ReLU
(:func:`~repro.nn.layers.activations.relu_`) and the residual add
(:meth:`~repro.nn.layers.ResidualBlock.forward_inference`) are applied **in
place on the GEMM output the step itself allocated**.  A max-pool gathers
nothing: it runs the layer's own running maximum
(:meth:`~repro.nn.layers.MaxPool2D.running_max`) without the index a
training forward records — one output, the ``pool_size²`` window positions
folded into it, no compare work.  Nothing is saved into the
:class:`~repro.nn.context.ForwardContext` (there is no backward pass to
serve).  A layer kind without a step — average pooling (see rule 4),
flatten, dense, custom layers — runs its own ``forward(training=False)``.
``Layer.forward`` remains the training path and is the oracle the plan is
tested against (for max-pooling, whose forward runs the same fold, the
tests keep a column-matrix oracle).

Bit-exactness rules
-------------------
Gathers and layouts are not arithmetic, so the plan returns the
layer-by-layer bits provided every GEMM sees the same M/K/N and operand
memory order and every element the same roundings.  Each rule below is
pinned by a test in ``tests/inference/test_prefix_plan.py``:

1. **N == 1 columns keep the column-major view.**  A single-example column
   matrix has strides ``(itemsize, oh·ow·itemsize)`` (BLAS takes the
   transposed-A path for it); larger batches are C-contiguous.  That is
   :func:`~repro.nn.tensor.im2col`'s contract; the plan only has to call it.
2. **ReLU is ``multiply(y, y > 0)``**, not ``maximum(y, 0)``: a negative
   input yields ``-0.0`` under the former and ``+0.0`` under the latter.
3. **BatchNorm keeps its four roundings, in order**: ``(x − mean) ·
   inv_std`` then ``gamma · x̂ + beta``.  Folding them into one scale and
   one shift saves two passes and changes the last bit.
4. **Every returned activation is a fresh array** with the layer-by-layer
   shape *and strides* — the NCHW view of NHWC memory a convolution's
   output has always been
   (:class:`~repro.nn.layers.pooling.GlobalAvgPool2D`'s reduction order
   depends on those strides; the stride of an extent-1 axis, which NumPy
   leaves arbitrary, is the one thing not reproduced).  It never aliases
   the arena, the caller's ``x`` or a previously returned (possibly cached)
   activation, because the only thing a step mutates is the array it just
   allocated itself (a GEMM result, a pool output).  An identity shortcut
   that arrives in another memory order than the main branch is added out
   of place, so NumPy picks the result layout as it does layer by layer.
5. **Weights are read at call time.**  Nothing derived from a parameter or
   a running statistic (weight matrix views, ``inv_std``) outlives a call,
   so no ``weights_version`` bookkeeping is needed: an optimizer step,
   ``Parameter.assign``, quantization or a model swap is visible to the
   next call by construction.
6. **Non-float64 input takes the same kernels.**  Columns are gathered in
   the input's dtype, exactly as layer-by-layer, so ``matmul`` performs the
   same promotion; the arena is raw storage carved per call, so a float32
   batch leaves nothing behind that a later float64 batch could read.
7. **Max-pooling is the layer's running maximum.**
   :meth:`~repro.nn.layers.MaxPool2D.running_max` folds the window
   positions in ``(kh, kw)`` order and never rounds; a ``-0.0``/``+0.0``
   tie (rule 2 makes it common) goes to the later position.  Its layout:
   ``N > 1`` returns the NCHW view of fresh ``(N, oh, ow, C)`` memory,
   ``N == 1`` NCHW-contiguous memory, and the head's ``Flatten`` / GEMM
   path follows those strides.  Which NaN's sign and payload survives is
   outside the contract.

Ownership and bound
-------------------
A plan belongs to one engine replica, like the replica's activation cache:
it is process-local (dropped when an engine is pickled; the receiver starts
empty) and not shared between replicas.  The compiled steps hold no
per-call state, and the arena is **per calling thread**
(``threading.local``): an engine shared between threads that each pass
their own ``ForwardContext`` — the documented alternative to replicas —
never has two gathers in one buffer, and a thread's arena is released with
the thread.  Each arena holds one column buffer sized to the largest column
matrix seen (largest layer × largest batch) plus one zero-bordered image
per distinct layout, padded geometry and padding, in the input's own
order: channels-last for the NCHW view of NHWC memory a step returns for
``N > 1``, channels-first for ``N == 1``.  An unpadded convolution reads
either in place and needs none.  The gather's offsets are cached per
geometry, outside the arena and independent of the batch.  All of that is
a function of the layer list and the largest batch, not of the number of
calls.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np

from ..nn.context import ForwardContext
from ..nn.layers import BatchNorm, Conv2D, MaxPool2D, ReLU, ResidualBlock
from ..nn.layers.activations import relu_
from ..nn.layers.base import Layer
from ..nn.model import Network
from ..nn.tensor import ColumnArena

__all__ = ["PrefixPlan"]


def _conv(arena: ColumnArena, conv: Conv2D, x: np.ndarray) -> np.ndarray:
    """``conv.forward(x)`` with the columns in the arena and nothing saved."""
    return conv.lower(x, arena)[0]


def _conv_bn_relu(
    conv: Conv2D,
    bn: BatchNorm | None,
    relu: bool,
    x: np.ndarray,
    arena: ColumnArena,
) -> np.ndarray:
    out = _conv(arena, conv, x)
    if bn is not None:
        bn.normalize_(out)
    return relu_(out) if relu else out


def _residual(block: ResidualBlock, x: np.ndarray, arena: ColumnArena) -> np.ndarray:
    return block.forward_inference(x, partial(_conv, arena))


def _max_pool(pool: MaxPool2D, x: np.ndarray, arena: ColumnArena) -> np.ndarray:
    """``pool.forward(x)`` without the index a training forward records."""
    return pool.running_max(x)


class PrefixPlan:
    """The planned deterministic forward of one network (see module docstring).

    ``forward_range`` is a drop-in for
    ``network.forward_range(x, start, stop, training=False, ctx=ctx)``:
    same result bits, same result strides, fresh result array.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._local = threading.local()
        self._steps: dict[tuple[int, int], list] = {}

    @property
    def arena(self) -> ColumnArena:
        """The calling thread's column arena (grows to the largest gather seen)."""
        try:
            return self._local.arena
        except AttributeError:
            arena = self._local.arena = ColumnArena()
            return arena

    def _compile(self, start: int, stop: int) -> list:
        """Group layers ``[start, stop)`` into planned steps and fallbacks.

        A planned step is a callable ``step(x, arena)``; a layer kind
        without one stays the :class:`Layer` itself.
        """
        layers = self.network.layers
        steps: list = []
        i = start
        while i < stop:
            layer = layers[i]
            i += 1
            if isinstance(layer, Conv2D):
                bn = None
                if i < stop and isinstance(layers[i], BatchNorm):
                    bn = layers[i]
                    i += 1
                relu = i < stop and isinstance(layers[i], ReLU)
                i += relu
                steps.append(partial(_conv_bn_relu, layer, bn, relu))
            elif isinstance(layer, ResidualBlock):
                steps.append(partial(_residual, layer))
            elif type(layer) is MaxPool2D:
                steps.append(partial(_max_pool, layer))
            else:
                steps.append(layer)
        return steps

    def forward_range(
        self, x: np.ndarray, start: int, stop: int, ctx: ForwardContext
    ) -> np.ndarray:
        """Inference-mode layers ``[start, stop)`` of the network on ``x``."""
        steps = self._steps.get((start, stop))
        if steps is None:
            if not 0 <= start <= stop <= len(self.network.layers):
                raise IndexError(
                    f"invalid layer range [{start}, {stop}) for "
                    f"{len(self.network.layers)} layers"
                )
            steps = self._steps[(start, stop)] = self._compile(start, stop)
        arena = self.arena
        out = x
        for step in steps:
            if isinstance(step, Layer):
                out = step.forward(out, training=False, ctx=ctx)
            else:
                out = step(out, arena)
        return out

    def activations(
        self, x: np.ndarray, bounds: list[tuple[int, int]], ctx: ForwardContext
    ) -> list[np.ndarray]:
        """The output of each consecutive layer range in ``bounds``, chained."""
        acts = []
        out = x
        for start, stop in bounds:
            out = self.forward_range(out, start, stop, ctx)
            acts.append(out)
        return acts
