"""Multi-exit Monte-Carlo-Dropout Bayesian neural network.

:class:`MultiExitBayesNet` is the paper's core algorithmic contribution: a
shared deterministic backbone with one classifier ("exit") per semantic
block, where Monte-Carlo-dropout layers are inserted only near the exits.
Monte-Carlo samples are produced by caching the backbone activations and
re-running only the stochastic exit heads, which makes the cost of ``S``
samples ``FLOP_main + ceil(S / N_exit) * FLOP_exit`` instead of
``S * (FLOP_main + FLOP_exit)`` (Eq. 1–2).

The same class expresses all four model families of Table I:

================  =========================================================
SE                ``num_exits=1, mcd_layers_per_exit=0``
MCD               ``num_exits=1, mcd_layers_per_exit>=1``
ME                ``num_exits=M, mcd_layers_per_exit=0``
MCD+ME (ours)     ``num_exits=M, mcd_layers_per_exit>=1``
================  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..nn.architectures.common import BackboneSpec
from ..nn.context import ForwardContext, resolve_context
from ..nn.layers.base import Parameter
from ..nn.model import Network
from .flops import FlopBreakdown, network_flops
from .mcd import MCPrediction
from .multi_exit import EarlyExitResult, ExitHeadConfig, build_exit_head

__all__ = ["MultiExitConfig", "MultiExitBayesNet", "single_exit_bayesnet"]


def single_exit_bayesnet(
    spec: BackboneSpec,
    num_mcd_layers: int = 0,
    dropout_rate: float = 0.25,
    seed: int = 0,
    name: str | None = None,
) -> Network:
    """Build a *single-exit* network from fresh layers as one flat :class:`Network`.

    The backbone and the architecture's original classifier head are
    composed into a single sequential network, and ``num_mcd_layers``
    MC-dropout layers are inserted in front of the last parameterised layers
    (from the exit towards the input, the paper's placement rule).  With no
    MC dropout this is the non-Bayesian baseline ("SE" in Table I, named
    ``{spec.name}_se``); with it, the "Bayes-LeNet / Bayes-ResNet18 /
    Bayes-VGG11" construction used in the hardware-cost study of Figure 5.
    """
    from .mcd import insert_mcd_into_head

    layers = insert_mcd_into_head(
        spec.backbone_factory() + spec.final_head_factory(),
        num_mcd_layers=num_mcd_layers,
        dropout_rate=dropout_rate,
        seed=seed,
        name_prefix="mcd",
    )
    if name is None:
        suffix = f"bayes_mcd{num_mcd_layers}" if num_mcd_layers else "se"
        name = f"{spec.name}_{suffix}"
    net = Network(layers, name=name)
    net.build(spec.input_shape, seed=seed)
    return net


@dataclass
class MultiExitConfig:
    """Configuration of a multi-exit MCD BayesNN.

    Attributes
    ----------
    num_exits:
        Number of exits.  Exits are attached to the *last* ``num_exits``
        semantic blocks of the backbone (the final exit is always present
        and reuses the architecture's original classifier head).
    mcd_layers_per_exit:
        MC-dropout layers inserted into each exit head, counted from the exit
        towards the input.  ``0`` disables MCD (non-Bayesian exits).
    dropout_rate:
        Bernoulli drop probability of every MCD layer.
    exit_conv_channels:
        Channels of the optional 3x3 convolution at the start of each
        intermediate exit head (0 = plain pooling + linear head).
    default_mc_samples:
        Number of MC samples drawn when :meth:`MultiExitBayesNet.predict_mc`
        is called without an explicit count (the paper uses 3 for the
        hardware comparison).
    seed:
        Seed for weight initialization and MCD mask streams.
    """

    num_exits: int = 1
    mcd_layers_per_exit: int = 1
    dropout_rate: float = 0.25
    exit_conv_channels: int = 0
    default_mc_samples: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_exits <= 0:
            raise ValueError("num_exits must be positive")
        if self.mcd_layers_per_exit < 0:
            raise ValueError("mcd_layers_per_exit must be non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.default_mc_samples <= 0:
            raise ValueError("default_mc_samples must be positive")

    @property
    def is_bayesian(self) -> bool:
        return self.mcd_layers_per_exit > 0 and self.dropout_rate > 0.0


class MultiExitBayesNet:
    """Multi-exit MCD-based Bayesian neural network (see module docstring).

    Training goes through :meth:`forward_exits` / :meth:`backward_exits`
    (the :class:`~repro.nn.training.MultiExitModel` protocol): the backward
    accumulates parameter gradients only and computes no gradient with
    respect to the input.  Inference goes through :attr:`engine`.
    """

    def __init__(self, spec: BackboneSpec, config: MultiExitConfig) -> None:
        if config.num_exits > spec.num_blocks:
            raise ValueError(
                f"architecture {spec.name!r} has only {spec.num_blocks} blocks; "
                f"cannot attach {config.num_exits} exits"
            )
        self.spec = spec
        self.config = config
        self.name = f"{spec.name}_me{config.num_exits}_mcd{config.mcd_layers_per_exit}"

        # exits are attached to the last `num_exits` blocks (the final exit is
        # always the end of the backbone)
        self.exit_points: list[int] = list(spec.exit_points[-config.num_exits :])

        self.backbone = Network(spec.backbone_factory(), name=f"{spec.name}_backbone")
        self.backbone.build(spec.input_shape, seed=config.seed)

        self._engine = None  # lazily-built repro.inference.InferenceEngine

        self.exits: list[Network] = []
        for i, point in enumerate(self.exit_points):
            feature_shape = (
                self.backbone.layers[point - 1].output_shape
                if point > 0
                else spec.input_shape
            )
            is_final = i == len(self.exit_points) - 1
            head_cfg = ExitHeadConfig(
                num_classes=spec.num_classes,
                conv_channels=0 if is_final else config.exit_conv_channels,
                mcd_layers=config.mcd_layers_per_exit,
                dropout_rate=config.dropout_rate,
            )
            custom = spec.final_head_factory() if is_final else None
            layers = build_exit_head(
                head_cfg,
                feature_shape,
                name=f"exit{i}",
                seed=config.seed * 1000 + i,
                custom_layers=custom,
            )
            head = Network(layers, name=f"{spec.name}_exit{i}")
            head.build(feature_shape, seed=config.seed + 17 * (i + 1))
            self.exits.append(head)

    # ------------------------------------------------------------------ #
    # pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # the lazily-built engine holds per-process state (forward context,
        # content-keyed activation cache) — receivers rebuild their own lazily
        state = self.__dict__.copy()
        state["_engine"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def num_exits(self) -> int:
        return len(self.exits)

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.spec.input_shape

    def parameters(self) -> Iterator[Parameter]:
        yield from self.backbone.parameters()
        for head in self.exits:
            yield from head.parameters()

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # forward / backward (training)
    # ------------------------------------------------------------------ #
    def _segment_bounds(self) -> list[tuple[int, int]]:
        bounds = []
        prev = 0
        for point in self.exit_points:
            bounds.append((prev, point))
            prev = point
        return bounds

    def backbone_activations(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> list[np.ndarray]:
        """Activation of the backbone at each exit point (computed once)."""
        ctx = resolve_context(ctx)
        activations = []
        out = x
        for start, stop in self._segment_bounds():
            out = self.backbone.forward_range(
                out, start, stop, training=training, ctx=ctx
            )
            activations.append(out)
        return activations

    def forward_exits(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> list[np.ndarray]:
        """Logits of every exit for one (stochastic, if MCD) forward pass."""
        if self._engine is not None:
            # weights are about to change (training) or activations will be
            # recomputed anyway — drop the engine's backbone cache
            self._engine.invalidate_cache()
        ctx = resolve_context(ctx)
        activations = self.backbone_activations(x, training=training, ctx=ctx)
        return [
            head.forward(act, training=training, ctx=ctx)
            for head, act in zip(self.exits, activations)
        ]

    def backward_exits(
        self, grads: Sequence[np.ndarray], ctx: ForwardContext | None = None
    ) -> None:
        """Back-propagate one logits-gradient per exit through the shared backbone.

        Must be called right after :meth:`forward_exits` with the same
        context (layer caches are read back from it).  Accumulates every
        parameter's ``.grad`` exactly as a full ``backbone.backward_range``
        chain would, and returns nothing: the gradient with respect to the
        network input has no reader in training, so backbone layer 0 runs
        :meth:`~repro.nn.layers.Layer.backward_params` instead of
        ``backward`` (for a convolution that skips a GEMM and a ``col2im``).
        """
        if len(grads) != self.num_exits:
            raise ValueError(f"expected {self.num_exits} gradients, got {len(grads)}")
        ctx = resolve_context(ctx)
        bounds = self._segment_bounds()
        grad_back: np.ndarray | None = None
        for i in reversed(range(self.num_exits)):
            head = self.exits[i]
            grad_head = head.backward_range(grads[i], 0, len(head.layers), ctx=ctx)
            total = grad_head if grad_back is None else grad_head + grad_back
            start, stop = bounds[i]
            first = 1 if start == 0 < stop else start
            grad_back = self.backbone.backward_range(total, first, stop, ctx=ctx)
            if first > start:
                self.backbone.layers[0].backward_params(grad_back, ctx=ctx)

    # ------------------------------------------------------------------ #
    # inference (delegated to the sample-folded engine)
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The :class:`repro.inference.InferenceEngine` serving this model.

        Built lazily.  Its backbone-activation cache is invalidated
        automatically by :meth:`forward_exits` (i.e. by training) and by
        anything that changes ``backbone.weights_version`` — optimizer
        steps, ``Parameter.assign``, post-training quantization.  Only a
        raw ``param.value[...]`` write without a ``param.bump_version()``
        needs a manual ``model.engine.invalidate_cache()``.
        """
        if self._engine is None:
            from ..inference.engine import InferenceEngine

            self._engine = InferenceEngine(self)
        return self._engine

    def serving_engine(self, config=None):
        """Build a :class:`repro.serving.ServingEngine` over this model.

        The serving engine wraps :attr:`engine` (sharing its activation
        cache) and adds asyncio dynamic batching with backpressure::

            config = ServingConfig(num_samples=8)
            async with model.serving_engine(config) as server:
                result = await server.submit(example)

        ``config`` is a :class:`repro.serving.ServingConfig`; ``None``
        serves with all defaults.
        """
        from ..serving import ServingEngine

        return ServingEngine(self, config)

    def exit_probabilities(
        self, x: np.ndarray, stochastic: bool | None = None
    ) -> list[np.ndarray]:
        """Per-exit predictive distributions for one forward pass.

        ``stochastic=None`` uses MCD sampling when the model is Bayesian and
        the deterministic expectation otherwise.
        """
        return self.engine.exit_probabilities(x, stochastic=stochastic)

    def predict_mc(self, x: np.ndarray, num_samples: int | None = None) -> MCPrediction:
        """Monte-Carlo prediction with cached backbone activations.

        The backbone runs once; the ``ceil(num_samples / num_exits)``
        stochastic passes through each exit head are folded into the batch
        axis and run as a single pass (:class:`repro.inference.InferenceEngine`).
        Samples are interleaved round-robin across exits and truncated to
        exactly ``num_samples``, bit-identically to the historical per-pass
        loop (``looped_predict_mc`` in ``tests/inference/reference_loops.py``).
        """
        return self.engine.predict_mc(x, num_samples)

    def predict_proba(
        self, x: np.ndarray, num_samples: int | None = None
    ) -> np.ndarray:
        """Mean predictive distribution over ``num_samples`` folded MC samples.

        Raises ``ValueError`` for a model without MC dropout (SE, ME).
        """
        return self.engine.predict_proba(x, num_samples)

    def early_exit_predict(
        self, x: np.ndarray, threshold: float, use_ensemble: bool = True
    ) -> EarlyExitResult:
        """Confidence-based early exiting with per-example termination.

        Delegates to the engine's active-set path: only still-undecided
        examples are propagated through later backbone segments and heads.
        """
        return self.engine.early_exit_predict(x, threshold, use_ensemble=use_ensemble)

    # ------------------------------------------------------------------ #
    # cost analysis
    # ------------------------------------------------------------------ #
    def flop_breakdown(self) -> FlopBreakdown:
        """Backbone / per-exit FLOP split used by Eq. 1–3 and Table I."""
        return FlopBreakdown(
            backbone_flops=network_flops(self.backbone),
            exit_flops=[network_flops(head) for head in self.exits],
        )

    def cumulative_exit_flops(self) -> list[float]:
        """FLOPs needed to produce the prediction of exit ``i`` (for early exiting)."""
        bounds = self._segment_bounds()
        from .flops import layer_flops

        costs = []
        running_backbone = 0.0
        for (start, stop), head in zip(bounds, self.exits):
            running_backbone += sum(
                layer_flops(layer) for layer in self.backbone.layers[start:stop]
            )
            costs.append(running_backbone + network_flops(head))
        return costs

    def sampling_flops(self, num_samples: int | None = None) -> float:
        """FLOPs of one MC prediction (Eq. 2 with the implemented ceil)."""
        if num_samples is None:
            num_samples = self.config.default_mc_samples
        return self.flop_breakdown().mc_sampling_flops(num_samples)
