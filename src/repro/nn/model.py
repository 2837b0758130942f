"""Sequential network container.

:class:`Network` is a simple ordered list of layers with utilities that the
rest of the repository relies on:

* **partial forward passes** (``forward_range``) so that the multi-exit
  Bayesian model can cache the deterministic backbone activation and re-run
  only the stochastic exit heads for each Monte-Carlo sample;
* **named layers**, each with the structural ``describe()`` output the
  FPGA hardware back-end consumes.

Per-call state (layer backward caches, dropout masks, RNG streams) lives in
an explicit :class:`~repro.nn.context.ForwardContext` threaded through every
``forward`` / ``backward`` entry point.  Passing a private context per
logical caller makes the same ``Network`` object reentrant — several
threads can run inference over shared :class:`Parameter` storage at once.
With ``ctx=None`` the process-wide default context is used and behaviour
(and single-threadedness) is exactly as before the context refactor; a
``forward``/``backward`` pair must use the same context.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .context import ForwardContext, resolve_context
from .layers.base import Layer, Parameter

__all__ = ["Network"]


class Network:
    """An ordered container of layers forming a feed-forward network."""

    def __init__(
        self, layers: Sequence[Layer] | None = None, name: str = "network"
    ) -> None:
        self.name = name
        self.layers: list[Layer] = list(layers) if layers else []
        self.built = False
        self.input_shape: tuple[int, ...] | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, layer: Layer) -> "Network":
        """Append a layer; returns self for chaining."""
        if self.built:
            raise RuntimeError("cannot add layers after the network is built")
        self.layers.append(layer)
        return self

    def build(self, input_shape: tuple[int, ...], seed: int = 0) -> "Network":
        """Build every layer for the given per-sample input shape."""
        rng = np.random.default_rng(seed)
        shape = tuple(input_shape)
        self.input_shape = shape
        self._ensure_unique_names()
        for layer in self.layers:
            layer.build(shape, rng)
            shape = layer.output_shape
        self.built = True
        return self

    def _ensure_unique_names(self) -> None:
        seen: dict[str, int] = {}
        for layer in self.layers:
            base = layer.name
            if base in seen:
                seen[base] += 1
                layer.name = f"{base}_{seen[base]}"
            else:
                seen[base] = 0

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        """Run the full network."""
        return self.forward_range(x, 0, len(self.layers), training=training, ctx=ctx)

    def forward_range(
        self,
        x: np.ndarray,
        start: int,
        stop: int,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        """Run layers ``[start, stop)`` on ``x``.

        This is the primitive behind cached-backbone Monte-Carlo sampling:
        the deterministic prefix is evaluated once, and only the stochastic
        suffix is re-evaluated per sample.  ``ctx`` receives the per-layer
        backward caches and supplies the dropout streams; concurrent callers
        must each pass their own context.
        """
        if not self.built:
            raise RuntimeError("network must be built before calling forward")
        if not 0 <= start <= stop <= len(self.layers):
            raise IndexError(
                f"invalid layer range [{start}, {stop}) for {len(self.layers)} layers"
            )
        ctx = resolve_context(ctx)
        out = x
        for layer in self.layers[start:stop]:
            out = layer.forward(out, training=training, ctx=ctx)
        return out

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        """Back-propagate through the full network (after a forward pass)."""
        return self.backward_range(grad_output, 0, len(self.layers), ctx=ctx)

    def backward_range(
        self,
        grad_output: np.ndarray,
        start: int,
        stop: int,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        """Back-propagate through layers ``[start, stop)`` in reverse order.

        Must be called with the context of the matching forward pass (both
        default to the process-wide one).
        """
        ctx = resolve_context(ctx)
        grad = grad_output
        for layer in reversed(self.layers[start:stop]):
            grad = layer.backward(grad, ctx=ctx)
        return grad

    def predict(self, x: np.ndarray, ctx: ForwardContext | None = None) -> np.ndarray:
        """Inference-mode forward pass (no dropout except MC dropout)."""
        return self.forward(x, training=False, ctx=ctx)

    def __call__(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        return self.forward(x, training=training, ctx=ctx)

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        for layer in self.layers:
            yield from layer.parameters()

    @property
    def weights_version(self) -> int:
        """Monotonic token that changes whenever parameter values change.

        Activation caches (the sample-folded inference engines, the serving
        layer) key their entries on this value to detect stale activations.
        The token is derived from the per-parameter mutation counters
        (:attr:`Parameter.version`), so *any* documented mutation path —
        optimizer steps, ``Parameter.assign``, post-training quantization —
        invalidates caches automatically.  Only a raw
        ``param.value[...] = ...`` write without a following
        ``param.bump_version()`` can go unnoticed.
        """
        return sum(p.version for p in self.parameters())

    # ------------------------------------------------------------------ #
    # structure / introspection
    # ------------------------------------------------------------------ #
    def stochastic_layer_indices(self) -> list[int]:
        """Indices of layers that are stochastic at inference time (MCD)."""
        return [i for i, layer in enumerate(self.layers) if layer.stochastic]

    def first_stochastic_index(self) -> int:
        """Index of the first MC-dropout layer, or ``len(layers)`` if none.

        Everything before this index is deterministic at inference time and
        can therefore be cached across Monte-Carlo samples.
        """
        indices = self.stochastic_layer_indices()
        return indices[0] if indices else len(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Network(name={self.name!r}, layers={len(self.layers)})"
