"""Sample-folded inference engine.

:class:`InferenceEngine` wraps a :class:`~repro.core.bayesnn.MultiExitBayesNet`
(all four Table I families; SE and MCD are ``num_exits=1``): the backbone
runs once per batch through its :class:`~repro.inference.plan.PrefixPlan`
and its per-segment activations are shared across *all* exits and *all*
Monte-Carlo samples; each exit head is split at its first stochastic layer
and only that stochastic suffix is folded ``S`` times into the batch axis by
:func:`repro.inference.folding.sample_suffix`.

The engine reproduces the per-sample loops of the test oracle bit-for-bit
and implements confidence-based early exiting with *active-set masking*:
only still-undecided examples are propagated through later backbone
segments.  Its small cache reuses a batch's backbone activations when a
later call passes *identical bytes* under the same weights.
:mod:`repro.serving` serves :class:`InferenceEngine`; its
``DynamicBatcher`` is what turns async arrivals into batches.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..core.mcd import MCPrediction, deterministic_forward
from ..core.multi_exit import EarlyExitResult, exit_ensemble
from ..nn.context import ForwardContext
from ..nn.layers.activations import softmax
from ..nn.model import Network
from .folding import sample_suffix
from .plan import PrefixPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bayesnn import MultiExitBayesNet

__all__ = ["InferenceEngine"]


class _ActivationCache:
    """LRU memo of backbone activations, matched on the input's bytes.

    An entry is ``(weights token, shape, dtype.str, input bytes,
    activations)``, oldest first, at most ``maxsize`` of them — so the
    cache holds at most ``maxsize`` private input copies, and mutating the
    caller's array after a store cannot make a stale entry match.  Staged
    batches and ring views are fresh arrays, so matching bytes rather than
    objects is what lets serving replicas hit.  A lookup costs one
    ``tobytes`` copy plus at most ``maxsize`` comparisons: a hit compares
    the full length, a miss usually stops at the first differing byte.

    A store drops the entries stored under other *weights-version tokens*
    (:attr:`Network.weights_version`, from the per-parameter mutation
    counters), so optimizer steps, ``Parameter.assign``, ``set_weights``
    and quantization invalidate the cache unawares; code writing
    ``param.value[...]`` must bump the version or ``invalidate_cache()``.
    Non-C-contiguous inputs count as misses and are never stored;
    ``hits``/``misses`` count every lookup and feed ``ServingStats``.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self._entries: list[tuple] = []
        self.hits = self.misses = 0

    def get(self, x: np.ndarray, token: object):
        if self.maxsize <= 0:
            return None
        if x.flags.c_contiguous:
            key = (token, x.shape, x.dtype.str, x.tobytes())
            for i, entry in enumerate(self._entries):
                if entry[:4] == key:
                    self._entries.append(self._entries.pop(i))
                    self.hits += 1
                    return entry[4]
        self.misses += 1
        return None

    def put(self, x: np.ndarray, token: object, value: object) -> None:
        if self.maxsize <= 0 or not x.flags.c_contiguous:
            return
        key = (token, x.shape, x.dtype.str, x.tobytes())
        # drop what older weights stored, and the entry these bytes replace
        kept = [e for e in self._entries if e[0] == token and e[:4] != key]
        kept.append(key + (value,))
        self._entries = kept[-self.maxsize :]

    def clear(self) -> None:
        self._entries.clear()


class InferenceEngine:
    """Vectorised inference over a multi-exit MCD BayesNN.

    The engine is the software analogue of the paper's cached-tensor +
    MC-engine design: per-segment backbone activations are computed once and
    shared across all exits and all samples, and the ``ceil(S / E)``
    stochastic head passes are folded into the batch axis so every exit head
    runs exactly once per prediction.

    All public methods keep the semantics (and, for ``predict_mc``, the bit
    pattern) of the pre-folding per-sample loops.

    Each instance owns a private
    :class:`~repro.nn.context.ForwardContext` and activation cache;
    :meth:`replicate` builds additional engines over the same model
    (parameters shared zero-copy) that can run concurrently — one replica
    per serving worker.
    """

    def __init__(
        self,
        model: "MultiExitBayesNet",
        cache_size: int = 4,
    ) -> None:
        self.model = model
        self._cache = _ActivationCache(cache_size)
        #: the engine's private forward context (streams + layer caches)
        self.ctx = ForwardContext()
        #: the engine's private plan for the deterministic backbone
        self._plan = PrefixPlan(model.backbone)

    # ------------------------------------------------------------------ #
    def replicate(self) -> "InferenceEngine":
        """A new engine over the *same* model (zero-copy parameter sharing).

        The replica has its own :class:`~repro.nn.context.ForwardContext`
        and activation cache, so it can run concurrently with this engine.
        """
        return InferenceEngine(self.model, cache_size=self._cache.maxsize)

    def __getstate__(self) -> dict:
        # the private context, the activation cache and the prefix plan (with
        # its column arena) are process-local; what crosses the boundary is
        # the model (pickle-light when its parameters are shared-memory
        # backed, see repro.nn.shm) plus the cache size — so unpickling *is*
        # replicate() across a process boundary
        state = self.__dict__.copy()
        del state["ctx"], state["_plan"]
        state["_cache"] = self._cache.maxsize
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache = _ActivationCache(state["_cache"])
        self.ctx = ForwardContext()
        self._plan = PrefixPlan(self.model.backbone)

    def invalidate_cache(self) -> None:
        """Drop cached backbone activations (call after mutating weights)."""
        self._cache.clear()

    def cache_stats(self) -> tuple[int, int]:
        """``(hits, misses)`` of the activation cache so far."""
        return self._cache.hits, self._cache.misses

    def weights_token(self) -> int:
        """Current weights-version token the activation cache is keyed on."""
        return self.model.backbone.weights_version

    def backbone_activations(
        self, x: np.ndarray, ctx: ForwardContext | None = None
    ) -> list[np.ndarray]:
        """Backbone activation at each exit point, computed once and cached.

        A miss runs the planned prefix (:mod:`repro.inference.plan`), which
        returns the bits and strides of the layer-by-layer
        ``model.backbone_activations(x)``.
        """
        token = self.weights_token()
        acts = self._cache.get(x, token)
        if acts is None:
            acts = self._plan.activations(
                x, self.model._segment_bounds(), self.ctx if ctx is None else ctx
            )
            self._cache.put(x, token, acts)
        return acts

    # ------------------------------------------------------------------ #
    # Monte-Carlo prediction (folded)
    # ------------------------------------------------------------------ #
    def _head_mc_probs(
        self, head: Network, act: np.ndarray, num_passes: int, ctx: ForwardContext
    ) -> np.ndarray:
        """``num_passes`` MC samples of one head, shape ``(P, N, classes)``.

        The head is split at its first stochastic layer: the deterministic
        head prefix runs once on the ``(N, …)`` activation and only the
        stochastic suffix is folded ``P`` times.
        """
        split = head.first_stochastic_index()
        prefix = head.forward_range(act, 0, split, training=False, ctx=ctx)
        return sample_suffix(head, prefix, split, num_passes, ctx)

    def predict_mc(
        self,
        x: np.ndarray,
        num_samples: int | None = None,
        ctx: ForwardContext | None = None,
    ) -> MCPrediction:
        """Monte-Carlo prediction with cached backbone and folded heads.

        Bit-identical to the legacy per-pass loop: samples are interleaved
        round-robin across exits (``e0p0, e1p0, …, e0p1, …``) and truncated
        to exactly ``num_samples``.  ``ctx`` overrides the engine's own
        context for this call — that is how the serving pool gives every
        batch a deterministic, scheduling-independent stream; leave it
        ``None`` for the (bit-identical to pre-context) persistent engine
        streams.
        """
        model = self.model
        if num_samples is None:
            num_samples = model.config.default_mc_samples
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        ctx = self.ctx if ctx is None else ctx

        activations = self.backbone_activations(x, ctx=ctx)
        passes = math.ceil(num_samples / model.num_exits)

        per_head = [
            self._head_mc_probs(head, act, passes, ctx)
            for head, act in zip(model.exits, activations)
        ]
        # (E, P, N, C) -> (P, E, N, C) -> flat sample index k = p*E + e
        stacked = np.stack(per_head)
        flat = stacked.transpose(1, 0, 2, 3).reshape(
            (passes * model.num_exits,) + stacked.shape[2:]
        )
        sample_probs = np.ascontiguousarray(flat[:num_samples])
        return MCPrediction(
            mean_probs=sample_probs.mean(axis=0), sample_probs=sample_probs
        )

    # ------------------------------------------------------------------ #
    # per-exit predictions
    # ------------------------------------------------------------------ #
    def exit_probabilities(
        self,
        x: np.ndarray,
        stochastic: bool | None = None,
        ctx: ForwardContext | None = None,
    ) -> list[np.ndarray]:
        """Per-exit predictive distributions for one forward pass."""
        if stochastic is None:
            stochastic = self.model.config.is_bayesian
        ctx = self.ctx if ctx is None else ctx
        activations = self.backbone_activations(x, ctx=ctx)
        probs = []
        for head, act in zip(self.model.exits, activations):
            if stochastic:
                logits = head.forward(act, training=False, ctx=ctx)
            else:
                logits = deterministic_forward(head, act, ctx=ctx)
            probs.append(softmax(logits, axis=-1))
        return probs

    def exit_mc_probabilities(
        self, x: np.ndarray, num_passes: int, ctx: ForwardContext | None = None
    ) -> list[np.ndarray]:
        """Per-exit MC-mean distributions over ``num_passes`` folded passes.

        Replaces the accumulate-over-passes loops of the Table I evaluation:
        each head's stochastic suffix runs once on a ``(P·N, …)`` fold
        instead of ``P`` times on ``(N, …)``.
        """
        if num_passes <= 0:
            raise ValueError("num_passes must be positive")
        ctx = self.ctx if ctx is None else ctx
        activations = self.backbone_activations(x, ctx=ctx)
        return [
            self._head_mc_probs(head, act, num_passes, ctx).mean(axis=0)
            for head, act in zip(self.model.exits, activations)
        ]

    def predict_proba(
        self,
        x: np.ndarray,
        num_samples: int | None = None,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        """Mean predictive distribution (MC if Bayesian, deterministic otherwise)."""
        if self.model.config.is_bayesian:
            return self.predict_mc(x, num_samples, ctx=ctx).mean_probs
        return exit_ensemble(self.exit_probabilities(x, stochastic=False, ctx=ctx))

    def predict(self, x: np.ndarray, num_samples: int | None = None) -> np.ndarray:
        """Predicted class labels."""
        return self.predict_proba(x, num_samples).argmax(axis=1)

    # ------------------------------------------------------------------ #
    # batched early exiting (active-set masking)
    # ------------------------------------------------------------------ #
    def early_exit_predict(
        self,
        x: np.ndarray,
        threshold: float,
        use_ensemble: bool = True,
        stochastic: bool | None = None,
        ctx: ForwardContext | None = None,
    ) -> EarlyExitResult:
        """Confidence-based early exiting with per-example termination.

        Unlike the eager legacy path (compute every exit, then select), the
        batch streams through the exits: after each exit, examples whose
        confidence reaches ``threshold`` are retired and only the active set
        is propagated through later backbone segments and heads — so a
        mostly-easy batch never pays for the deep exits.

        When the batch's backbone activations are already memoised (a prior
        :meth:`predict_mc` / :meth:`backbone_activations` call on a batch
        with *identical bytes* under the current weights — the cache
        matches bytes, so staged buffers and ring views hit like the
        original array), the backbone is not re-run at all:
        each exit reads the still-active rows straight out of the cached
        per-segment activations.  Cache hits may differ from the cold path
        by a few ULPs (GEMMs over a row subset are not bit-stable against
        GEMMs over the full batch); the retire/exit decisions and result
        semantics are identical.
        """
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        model = self.model
        if stochastic is None:
            stochastic = model.config.is_bayesian
        ctx = self.ctx if ctx is None else ctx
        bounds = model._segment_bounds()
        n = x.shape[0]
        num_exits = model.num_exits

        # reuse memoised per-segment activations for this exact batch, if any
        cached_acts = self._cache.get(x, self.weights_token())

        chosen = np.zeros((n, model.num_classes))
        exit_indices = np.full(n, num_exits - 1, dtype=np.int64)
        active = np.arange(n)
        out = x
        running: np.ndarray | None = None

        for i, ((start, stop), head) in enumerate(zip(bounds, model.exits)):
            if cached_acts is not None:
                act = cached_acts[i]
                out = act if active.shape[0] == n else act[active]
            else:
                out = self._plan.forward_range(out, start, stop, ctx)
            if stochastic:
                logits = head.forward(out, training=False, ctx=ctx)
            else:
                logits = deterministic_forward(head, out, ctx=ctx)
            probs = softmax(logits, axis=-1)
            if use_ensemble:
                running = probs if running is None else running + probs
                candidate = running / (i + 1)
            else:
                candidate = probs

            is_last = i == num_exits - 1
            if is_last:
                retire = np.ones(candidate.shape[0], dtype=bool)
            else:
                retire = candidate.max(axis=1) >= threshold
            retired = active[retire]
            chosen[retired] = candidate[retire]
            exit_indices[retired] = i
            if is_last:
                break

            keep = ~retire
            if not keep.any():
                break
            active = active[keep]
            if cached_acts is None:
                out = out[keep]
            if use_ensemble:
                running = running[keep]

        distribution = np.bincount(exit_indices, minlength=num_exits) / n
        return EarlyExitResult(
            probs=chosen,
            exit_indices=exit_indices,
            threshold=float(threshold),
            exit_distribution=distribution,
        )
