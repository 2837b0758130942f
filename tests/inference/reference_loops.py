"""Reference (pre-folding) inference loops, kept for regression and benchmarks.

These are verbatim ports of the per-sample Python loops that the flat
single-exit sampler and :class:`~repro.core.bayesnn.MultiExitBayesNet` used
before the sample-folded :mod:`repro.inference` engine replaced them.  They
define the behaviour the folded hot path must reproduce **bit-for-bit**
(same seeds ⇒ identical ``sample_probs``), which the regression tests in
``tests/inference/test_folded_equivalence.py`` enforce — the flat-network
side through :mod:`.folded_harness` — and they serve as the baseline of the
looped-vs-folded microbenchmark in ``benchmarks/test_inference_engine.py``.

These loops deliberately run ctx-less: they use the process-wide default
:class:`~repro.nn.context.ForwardContext`, whose streams seed from the
layers' seeds exactly like a fresh private context does — which is
what keeps twin-model folded-vs-legacy comparisons bit-identical after the
reentrancy refactor.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.layers.activations import softmax
from repro.nn.model import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bayesnn import MultiExitBayesNet
    from repro.core.mcd import MCPrediction
    from repro.core.multi_exit import EarlyExitResult

__all__ = ["looped_mc_sample", "looped_predict_mc", "eager_early_exit"]


def looped_mc_sample(
    network: Network, x: np.ndarray, num_samples: int
) -> "MCPrediction":
    """Legacy single-exit sampling: one stochastic suffix pass per sample."""
    from repro.core.mcd import MCPrediction

    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    split_index = network.first_stochastic_index()
    n_layers = len(network.layers)
    cached = network.forward_range(x, 0, split_index, training=False)

    samples = []
    for _ in range(num_samples):
        logits = network.forward_range(cached, split_index, n_layers, training=False)
        samples.append(softmax(logits, axis=-1))
        if split_index >= n_layers:
            # deterministic network: all samples identical, stop early
            samples = samples * num_samples
            break
    sample_probs = np.stack(samples[:num_samples])
    return MCPrediction(mean_probs=sample_probs.mean(axis=0), sample_probs=sample_probs)


def looped_predict_mc(
    model: "MultiExitBayesNet", x: np.ndarray, num_samples: int | None = None
) -> "MCPrediction":
    """Legacy ``MultiExitBayesNet.predict_mc``: re-run every head per pass."""
    from repro.core.mcd import MCPrediction

    if num_samples is None:
        num_samples = model.config.default_mc_samples
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")

    activations = model.backbone_activations(x, training=False)
    passes = math.ceil(num_samples / model.num_exits)

    per_pass_exit_probs: list[list[np.ndarray]] = []
    for _ in range(passes):
        pass_probs = [
            softmax(head.forward(act, training=False), axis=-1)
            for head, act in zip(model.exits, activations)
        ]
        per_pass_exit_probs.append(pass_probs)

    # round-robin over exits within each pass: e0p0, e1p0, ..., e0p1, ...
    flat: list[np.ndarray] = []
    for pass_probs in per_pass_exit_probs:
        flat.extend(pass_probs)
    sample_probs = np.stack(flat[:num_samples])
    return MCPrediction(mean_probs=sample_probs.mean(axis=0), sample_probs=sample_probs)


def eager_early_exit(
    model: "MultiExitBayesNet",
    x: np.ndarray,
    threshold: float,
    use_ensemble: bool = True,
) -> "EarlyExitResult":
    """Legacy ``early_exit_predict``: evaluate *every* exit, then select.

    The folded engine's active-set version only propagates still-undecided
    examples through later backbone segments; this eager version is the
    semantics it is checked against.  It deliberately bypasses the engine
    (no activation cache, no folding) so the regression tests compare two
    independent implementations.
    """
    from repro.core.mcd import deterministic_forward
    from repro.core.multi_exit import confidence_early_exit

    stochastic = model.config.is_bayesian
    activations = model.backbone_activations(x, training=False)
    probs = []
    for head, act in zip(model.exits, activations):
        if stochastic:
            logits = head.forward(act, training=False)
        else:
            logits = deterministic_forward(head, act)
        probs.append(softmax(logits, axis=-1))
    return confidence_early_exit(probs, threshold, use_ensemble=use_ensemble)
