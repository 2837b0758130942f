"""Sample-folded inference engines.

Two engines share the folded hot path of :mod:`repro.inference.folding`:

* :class:`NetworkEngine` wraps a flat :class:`~repro.nn.model.Network` (the
  single-exit Bayes-LeNet/-VGG/-ResNet construction): the deterministic
  prefix is evaluated once, tiled ``S`` times into the batch axis, and the
  stochastic suffix runs in a single folded pass.
* :class:`InferenceEngine` wraps a
  :class:`~repro.core.bayesnn.MultiExitBayesNet`: the backbone runs once per
  batch and its per-segment activations are shared across *all* exits and
  *all* Monte-Carlo samples; each exit head is split at its first stochastic
  layer so only the stochastic head suffix is folded and re-evaluated.

Both engines reproduce the per-sample loops of the test oracle bit-for-bit,
add a synchronous microbatched ``predict_stream``, and
:class:`InferenceEngine` implements confidence-based early exiting with
*active-set masking*: only still-undecided examples are propagated through
later backbone segments.  Its small content-keyed cache reuses a batch's
backbone activations only when a later call sees *identical bytes* under the
same weights.  :mod:`repro.serving` serves :class:`InferenceEngine`; its
``DynamicBatcher`` is what turns async arrivals into batches.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..core.mcd import MCPrediction, deterministic_forward
from ..core.multi_exit import EarlyExitResult, exit_ensemble
from ..nn.context import ForwardContext
from ..nn.layers import MCDropout
from ..nn.layers.activations import softmax
from ..nn.model import Network
from .folding import fold_batch, folded_forward_range, unfold_samples
from .plan import PrefixPlan
from .streaming import iter_microbatches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bayesnn import MultiExitBayesNet

__all__ = ["NetworkEngine", "InferenceEngine"]


class _ActivationCache:
    """Content-keyed LRU memo of activations for repeated inputs.

    Keys are ``(weights token, shape, dtype, blake2b(bytes))`` — the cheap
    content digest the ISSUE-9 serving path needs: staged batches and ring
    views are *fresh array objects* every time, so the historical
    identity-keyed cache could never hit under serving.  Content keying
    gives replicas hot-path hits for repeated inputs regardless of which
    buffer the bytes arrive in, and makes in-place mutation of a cached
    *input* safe by construction (the digest changes with the bytes).

    Every key embeds a *weights-version token* (see
    :attr:`Network.weights_version`, derived from the per-parameter
    mutation counters): entries stored under an older token are pruned on
    the next store, so optimizer steps, ``Parameter.assign``,
    ``set_weights`` and post-training quantization all invalidate the
    cache without having to know about it.  Only a raw
    ``param.value[...]`` write without a following ``param.bump_version()``
    goes unnoticed — such code must call ``engine.invalidate_cache()``
    itself.  Non-C-contiguous inputs bypass the cache (hashing them would
    need a materialising copy); ``hits``/``misses`` count every lookup and
    feed ``ServingStats``.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        # the key of the last get() miss, so the put() that follows a cold
        # lookup does not hash the same bytes twice (id() is stable here:
        # the caller holds x alive between its get and put)
        self._miss_key: tuple | None = None

    @staticmethod
    def _key(x: np.ndarray, token: object) -> tuple | None:
        if not x.flags.c_contiguous:
            return None
        digest = hashlib.blake2b(x, digest_size=16).digest()
        return (token, x.shape, x.dtype.str, digest)

    def get(self, x: np.ndarray, token: object):
        # a miss key is only good for the put() right after its own get():
        # early exit gets without a put, and freed arrays' ids get reused
        self._miss_key = None
        if self.maxsize <= 0:
            return None
        key = self._key(x, token)
        if key is None:
            self.misses += 1
            return None
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            self._miss_key = (id(x), token, key)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, x: np.ndarray, token: object, value: object) -> None:
        if self.maxsize <= 0:
            return
        miss_key, self._miss_key = self._miss_key, None
        if miss_key is not None and miss_key[0] == id(x) and miss_key[1] == token:
            key = miss_key[2]
        else:
            key = self._key(x, token)
        if key is None:
            return
        # a weights bump invalidates everything stored under older tokens
        stale = [k for k in self._entries if k[0] != token]
        for k in stale:
            del self._entries[k]
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self._miss_key = None


class NetworkEngine:
    """Folded Monte-Carlo inference over a flat network with MCD layers.

    The engine splits the network at its first stochastic layer, evaluates
    the deterministic prefix once, folds the cached activation ``S`` times
    into the batch axis and runs the stochastic suffix in a single pass —
    the software analogue of the accelerator's spatial MC-engine mapping.

    Parameters
    ----------
    network:
        A built :class:`~repro.nn.model.Network`.
    seed:
        When given, reseeds every MCD layer (as ``MCSampler`` does).

    Notes
    -----
    The engine owns a private :class:`~repro.nn.context.ForwardContext`
    (:attr:`ctx`) holding its dropout streams and layer caches.  One engine
    instance is a single logical caller: don't share it between threads
    without an explicit per-call ``ctx``.  (The prefix plan's column arena
    is per calling thread, so the per-call-``ctx`` route shares no scratch.)
    """

    def __init__(self, network: Network, seed: int | None = None) -> None:
        if not network.built:
            raise ValueError("network must be built before sampling")
        self.network = network
        #: the engine's private forward context (streams + layer caches)
        self.ctx = ForwardContext()
        #: the engine's private plan for the deterministic prefix (its
        #: scratch arena is per calling thread, see :mod:`.plan`)
        self._plan = PrefixPlan(network)
        if seed is not None:
            self.reseed(seed)

    # ------------------------------------------------------------------ #
    def reseed(self, seed: int) -> None:
        """Reseed every MCD layer for reproducible sample sequences.

        Model-wide: the layers' seeds are updated, so every context (this
        engine's, other replicas', the ctx-less default) re-derives its
        streams from the new seeds on its next draw.
        """
        for offset, idx in enumerate(self.network.stochastic_layer_indices()):
            layer = self.network.layers[idx]
            if isinstance(layer, MCDropout):
                layer.reseed(seed + offset)

    @property
    def split_index(self) -> int:
        return self.network.first_stochastic_index()

    @property
    def has_stochastic_layers(self) -> bool:
        return self.split_index < len(self.network.layers)

    # ------------------------------------------------------------------ #
    def sample(
        self,
        x: np.ndarray,
        num_samples: int = 3,
        ctx: ForwardContext | None = None,
    ) -> MCPrediction:
        """Draw ``num_samples`` MC predictive samples in one folded pass.

        ``ctx`` overrides the engine's own context for this call (see
        :meth:`InferenceEngine.predict_mc`).
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        ctx = self.ctx if ctx is None else ctx
        split = self.split_index
        n_layers = len(self.network.layers)
        prefix = self._plan.forward_range(x, 0, split, ctx)

        if split >= n_layers:
            # deterministic network: one pass, replicate the sample
            probs = softmax(prefix, axis=-1)
            sample_probs = np.stack([probs] * num_samples)
        else:
            folded = fold_batch(prefix, num_samples)
            logits = folded_forward_range(
                self.network,
                folded,
                num_samples,
                split,
                n_layers,
                ctx=ctx,
            )
            sample_probs = unfold_samples(softmax(logits, axis=-1), num_samples)
        return MCPrediction(
            mean_probs=sample_probs.mean(axis=0), sample_probs=sample_probs
        )

    def predict_proba(
        self,
        x: np.ndarray,
        num_samples: int | None = None,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        """Predictive distribution: MC mean when ``num_samples`` is given,
        otherwise one (stochastic, if MCD) forward pass."""
        if num_samples is not None:
            return self.sample(x, num_samples, ctx=ctx).mean_probs
        ctx = self.ctx if ctx is None else ctx
        return softmax(self.network.forward(x, training=False, ctx=ctx), axis=-1)

    def predict_stream(
        self,
        inputs: np.ndarray | Iterable[np.ndarray],
        batch_size: int = 64,
        num_samples: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Microbatched predictive distributions for high-volume workloads.

        Yields one ``(<=batch_size, classes)`` probability array per
        microbatch; peak memory stays bounded by the microbatch fold.
        """
        for batch in iter_microbatches(inputs, batch_size):
            yield self.predict_proba(batch, num_samples)


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
        """``(hits, misses)`` of the content-keyed activation cache so far."""
        return self._cache.hits, self._cache.misses

    def weights_token(self) -> int:
        """Current weights-version token the activation cache is keyed on."""
        return self.model.backbone.weights_version

    def _weights_token(self) -> object:
        return self.weights_token()

    def backbone_activations(
        self, x: np.ndarray, ctx: ForwardContext | None = None
    ) -> list[np.ndarray]:
        """Backbone activation at each exit point, computed once and cached.

        A miss runs the planned prefix (:mod:`repro.inference.plan`), which
        returns the bits and strides of the layer-by-layer
        ``model.backbone_activations(x)``.
        """
        token = self._weights_token()
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
        if split >= len(head.layers):
            probs = softmax(prefix, axis=-1)
            return np.stack([probs] * num_passes)
        folded = fold_batch(prefix, num_passes)
        logits = folded_forward_range(
            head,
            folded,
            num_passes,
            split,
            len(head.layers),
            ctx=ctx,
        )
        return unfold_samples(softmax(logits, axis=-1), num_passes)

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

    def predict_deterministic(
        self, x: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        """Ensemble prediction with MCD replaced by its expectation."""
        return exit_ensemble(self.exit_probabilities(x, stochastic=False, ctx=ctx))

    def predict_proba(
        self,
        x: np.ndarray,
        num_samples: int | None = None,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        """Mean predictive distribution (MC if Bayesian, deterministic otherwise)."""
        if self.model.config.is_bayesian:
            return self.predict_mc(x, num_samples, ctx=ctx).mean_probs
        return self.predict_deterministic(x, ctx=ctx)

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
        with *identical bytes* under the current weights — the cache is
        content-keyed, so staged buffers and ring views hit like the
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
        cached_acts = self._cache.get(x, self._weights_token())

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

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def predict_stream(
        self,
        inputs: np.ndarray | Iterable[np.ndarray],
        batch_size: int = 64,
        num_samples: int | None = None,
        early_exit_threshold: float | None = None,
    ) -> Iterator[np.ndarray]:
        """Microbatched mean predictive distributions for high-volume workloads.

        Yields one ``(<=batch_size, classes)`` probability array per
        microbatch.  With ``early_exit_threshold`` set, each microbatch runs
        through the active-set early-exit path instead of full MC sampling.
        """
        for batch in iter_microbatches(inputs, batch_size):
            if early_exit_threshold is not None:
                yield self.early_exit_predict(batch, early_exit_threshold).probs
            else:
                yield self.predict_proba(batch, num_samples)
