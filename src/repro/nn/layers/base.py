"""Base class shared by every layer in the NumPy substrate.

A :class:`Layer` carries *persistent* state only — parameters, shapes,
configuration.  All *per-call* state (backward caches, dropout masks, RNG
streams) lives in an explicit :class:`~repro.nn.context.ForwardContext`
threaded through ``forward`` / ``backward``, which is what makes the layers
reentrant: the same layer object can be mid-forward in several threads at
once as long as each caller uses its own context.  When ``ctx`` is omitted,
a process-wide default context is used, so single-threaded code reads
exactly as before.

Shapes exclude the batch dimension: ``input_shape`` and ``output_shape`` are
per-sample shapes such as ``(C, H, W)`` or ``(features,)``.  Layers must be
``build()``-able from their input shape so that architectures can be described
symbolically (channel counts, kernel sizes) and instantiated lazily; this is
what lets the hardware back-end reason about the same architecture without
allocating weights.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..context import ForwardContext, resolve_context

__all__ = ["Layer", "Parameter"]


class Parameter:
    """A trainable tensor together with its gradient accumulator.

    Every value mutation must be recorded in :attr:`version` so that
    activation caches keyed on :attr:`repro.nn.model.Network.weights_version`
    (which sums the versions of all parameters) can detect stale entries.
    Use :meth:`assign` to write new values — it bumps the version for you.
    Code that writes ``param.value[...]`` directly must call
    :meth:`bump_version` afterwards; a raw in-place write is invisible to
    NumPy and therefore to every cache.

    A parameter's storage can be moved into a shared-memory segment
    (:meth:`share_memory_`, orchestrated by
    :class:`repro.nn.shm.SharedParameterArena`) so worker processes serve
    over the very same bytes the owner mutates.  While shared, pickling is
    *light*: the value serializes as a ``(segment, offset, shape)``
    descriptor and unpickling re-attaches to the live segment — the two
    ends then **alias** one storage, which is exactly what the process-pool
    serving tier wants.  Call :meth:`unshare_` (or
    ``SharedParameterArena.release``) to return to private storage before
    pickling for durable snapshots.
    """

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        #: mutation counter; monotonically increasing, never reset.
        self.version = 0
        #: ``(segment_name, byte_offset, shape)`` while shared, else None
        self._shm_spec: tuple[str, int, tuple[int, ...]] | None = None

    @property
    def is_shared(self) -> bool:
        """Whether :attr:`value` currently lives in a shared-memory segment."""
        return self._shm_spec is not None

    def share_memory_(
        self, view: np.ndarray, spec: tuple[str, int, tuple[int, ...]]
    ) -> None:
        """Rebind :attr:`value` to a shared-memory view (same contents).

        ``view`` must be a float64 ndarray over the segment described by
        ``spec``.  The current values are copied in, so observable state is
        unchanged — but the *storage* moves: later in-place writes through
        ``self.value`` land in shared memory.  Gradients stay private.
        """
        if view.shape != self.value.shape:
            raise ValueError(
                f"shared view shape {view.shape} != parameter shape "
                f"{self.value.shape}"
            )
        view[...] = self.value
        self.value = view
        self._shm_spec = spec

    def unshare_(self) -> None:
        """Copy the value back into private memory (no-op when not shared)."""
        if self._shm_spec is None:
            return
        self.value = np.array(self.value, dtype=np.float64, copy=True)
        self._shm_spec = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # gradients are transient scratch state — never ship them
        state["grad"] = None
        if self._shm_spec is not None:
            # pickle-light: descriptor instead of data; __setstate__
            # re-attaches to the live segment
            state["value"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.value is None:
            from ..shm import attach_view  # deferred: avoids an import cycle

            self.value = attach_view(self._shm_spec)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def assign(self, value: np.ndarray) -> None:
        """Write new values in place and record the mutation.

        The assignment follows NumPy broadcasting rules against the existing
        shape (so a scalar or a full array both work) and keeps the storage
        and dtype of :attr:`value` — references held by optimizers and caches
        stay valid.
        """
        self.value[...] = value
        self.bump_version()

    def bump_version(self) -> None:
        """Record an in-place mutation of :attr:`value` done without :meth:`assign`."""
        self.version += 1

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Layer:
    """Common interface for all layers.

    Subclasses implement :meth:`build`, :meth:`forward` and :meth:`backward`.
    ``forward`` must stash whatever it needs for ``backward`` in the
    :class:`~repro.nn.context.ForwardContext` (``ctx.save(self, ...)``),
    never on ``self`` — per-call state on the layer would break reentrancy.
    ``backward`` reads it back with ``ctx.saved(self)``; the two must be
    called with the same context (both default to the process-wide one).
    """

    #: whether the layer behaves stochastically at inference time
    #: (only Monte-Carlo dropout layers set this to True).
    stochastic: bool = False

    def __init__(self, name: str | None = None) -> None:
        self.name = name or self.__class__.__name__.lower()
        self.built = False
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        self._params: dict[str, Parameter] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters for the given per-sample input shape."""
        self.input_shape = tuple(input_shape)
        self.output_shape = self.compute_output_shape(self.input_shape)
        self.built = True

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Return the per-sample output shape without allocating parameters."""
        return tuple(input_shape)

    def add_parameter(self, name: str, value: np.ndarray) -> Parameter:
        param = Parameter(value, name=f"{self.name}.{name}")
        self._params[name] = param
        return param

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ctx(ctx: ForwardContext | None) -> ForwardContext:
        """Resolve an optional context to a concrete one (default if None)."""
        return resolve_context(ctx)

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    def backward_params(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> None:
        """Accumulate :meth:`backward`'s parameter gradients, not its input gradient.

        For a caller that would discard the input gradient (the first layer
        of a network being trained).  This version runs :meth:`backward`
        and drops the result; a layer whose input gradient costs real work
        overrides it with the parameter half of its ``backward``.
        """
        self.backward(grad_output, ctx=ctx)

    def __call__(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        if not self.built:
            raise RuntimeError(
                f"layer {self.name!r} must be built before it is called"
            )
        return self.forward(x, training=training, ctx=ctx)

    # ------------------------------------------------------------------ #
    # parameter access
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        """Iterate over the layer's trainable parameters."""
        yield from self._params.values()

    def get_parameter(self, name: str) -> Parameter:
        return self._params[name]

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self._params.values())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # description (used by FLOP counting and the hardware back-end)
    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Return a JSON-serialisable description of the layer."""
        return {
            "type": self.__class__.__name__,
            "name": self.name,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "output_shape": list(self.output_shape) if self.output_shape else None,
            "parameters": self.num_parameters,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{self.__class__.__name__}(name={self.name!r}, "
            f"in={self.input_shape}, out={self.output_shape})"
        )
