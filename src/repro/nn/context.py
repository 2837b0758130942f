"""Explicit per-call forward state: the :class:`ForwardContext`.

Historically every layer stashed its backward cache (``self._cache``) and
its dropout mask (``self._mask``) on ``self``, and every stochastic layer
owned a private mutable RNG stream.  That made the whole stack reentrant
only per *layer object*: two concurrent forward passes through the same
network silently corrupted each other, which pinned the serving tier to a
single worker thread.

A :class:`ForwardContext` moves all of that per-call state off the layers:

* **backward caches** — ``forward`` writes whatever ``backward`` needs via
  :meth:`save`, keyed by the layer object; ``backward`` reads it back with
  :meth:`saved`.  Two contexts never see each other's caches, so the same
  layer can be mid-forward in two threads at once.
* **RNG streams** — stochastic layers draw masks from :meth:`rng`, a
  context-owned stream derived from the layer's ``seed`` attribute.  A
  plain context (``spawn_key=None``) seeds the stream exactly like the
  pre-context code seeded the layer's private stream
  (``np.random.default_rng(layer.seed)``), so a single-context run is
  **bit-identical** to the historical behaviour.  A context constructed
  with ``spawn_key=k`` instead *spawns* the stream from the layer seed
  (``SeedSequence(layer.seed, spawn_key=(k,))``), giving every context an
  independent, deterministic stream family — this is how the multi-worker
  serving pool makes results independent of which worker computes a batch.

What does **not** live in a context: parameters (shared zero-copy across
all contexts — that is the point), layer shapes, and BatchNorm running
statistics (learned model state, only mutated in training mode, which
remains a single-context affair like all gradient work).

Layers resolve ``ctx=None`` to a process-wide default context via
:func:`resolve_context`, so ctx-less code — training loops, quick scripts,
the legacy reference loops — behaves exactly as before (and is exactly as
non-reentrant as before).  Reentrancy is opt-in: pass an explicit context
per logical caller.

Reseeding: a new ``layer.seed`` comes with a bump of the layer's
``seed_epoch``; every context re-derives its stream for that layer from the
new seed on the next draw.  Reseeding is therefore a *model-wide*
operation visible to all contexts, which keeps the historical
"reseed ⇒ subsequent masks reproducible" contract.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .layers.base import Layer

    #: layer -> (seed_epoch at stream creation, stream)
    RngMap = weakref.WeakKeyDictionary[Layer, tuple[int, np.random.Generator]]

__all__ = ["ForwardContext", "resolve_context"]


class ForwardContext:
    """Holds the per-call state of forward/backward passes.

    Parameters
    ----------
    spawn_key:
        ``None`` (default): RNG streams are seeded exactly like the
        historical per-layer streams (``np.random.default_rng(layer.seed)``)
        — bit-identical single-context behaviour.  An integer ``k``: streams
        are spawned as ``SeedSequence(layer.seed, spawn_key=(k,))``, giving
        this context a deterministic stream family independent of every
        other spawn key (and of the plain ``None`` family).

    Notes
    -----
    A context is *not* thread-safe; it represents one logical call chain.
    Reentrancy comes from using one context per concurrent caller, not from
    sharing one context between callers.  Both internal maps are weak-keyed
    on the layer objects, so a context never keeps dead layers (or their
    cached activations) alive.
    """

    def __init__(self, spawn_key: int | None = None) -> None:
        if spawn_key is not None and spawn_key < 0:
            raise ValueError("spawn_key must be a non-negative integer")
        self.spawn_key = spawn_key
        self._saved: "weakref.WeakKeyDictionary[Layer, Any]" = (
            weakref.WeakKeyDictionary()
        )
        self._rngs: RngMap = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    # backward caches
    # ------------------------------------------------------------------ #
    def save(self, layer: "Layer", value: Any) -> None:
        """Store ``layer``'s forward-pass cache for the matching backward."""
        self._saved[layer] = value

    def saved(self, layer: "Layer") -> Any:
        """Return the cache stored by the last ``forward`` in this context."""
        try:
            return self._saved[layer]
        except KeyError:
            raise RuntimeError(
                f"no forward cache for layer {layer.name!r} in this context; "
                "backward() must be preceded by forward() with the same ctx"
            ) from None

    # ------------------------------------------------------------------ #
    # RNG streams
    # ------------------------------------------------------------------ #
    def rng(self, layer: "Layer") -> np.random.Generator:
        """The context-owned RNG stream for a stochastic layer.

        Created lazily from ``layer.seed`` (see class docstring for the
        spawn rule) and persistent across calls, so consecutive draws in
        one context consume a single stream — exactly like the historical
        layer-owned generator.  A bump of ``layer.seed_epoch`` makes every
        context re-derive its stream on the next draw.
        """
        epoch = getattr(layer, "seed_epoch", 0)
        entry = self._rngs.get(layer)
        if entry is None or entry[0] != epoch:
            entry = (epoch, self._make_rng(getattr(layer, "seed", None)))
            self._rngs[layer] = entry
        return entry[1]

    def _make_rng(self, seed: int | None) -> np.random.Generator:
        if self.spawn_key is None:
            return np.random.default_rng(seed)
        seq = np.random.SeedSequence(seed, spawn_key=(self.spawn_key,))
        return np.random.Generator(np.random.PCG64(seq))

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ForwardContext(spawn_key={self.spawn_key!r}, "
            f"cached_layers={len(self._saved)})"
        )


#: Process-wide fallback used whenever ``ctx=None`` — keeps ctx-less code
#: (training loops, scripts, the legacy loops) behaving exactly as before
#: the refactor, including its single-threadedness.
_DEFAULT_CONTEXT = ForwardContext()


def resolve_context(ctx: ForwardContext | None) -> ForwardContext:
    """Return ``ctx`` unchanged, or the process-wide default when ``None``."""
    return _DEFAULT_CONTEXT if ctx is None else ctx
