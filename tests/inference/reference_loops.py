"""Reference (pre-folding) inference loops, kept for regression and benchmarks.

These are verbatim ports of the per-sample Python loops that the flat
single-exit sampler and :class:`~repro.core.bayesnn.MultiExitBayesNet` used
before the sample-folded :mod:`repro.inference` engine replaced them.  They
define the behaviour the folded hot path must reproduce **bit-for-bit**
(same seeds ⇒ identical ``sample_probs``), which the regression tests in
``tests/inference/test_folded_equivalence.py`` enforce — the flat-network
side through :mod:`.folded_harness` — and they serve as the baseline of the
looped-vs-folded microbenchmark in ``benchmarks/test_inference_engine.py``.
``confidence_early_exit`` is the select step of the eager early exit: the
per-exit loop over precomputed exit predictions the engine's active-set
exit is checked against.

These loops deliberately run ctx-less: they use the process-wide default
:class:`~repro.nn.context.ForwardContext`, whose streams seed from the
layers' seeds exactly like a fresh private context does — which is
what keeps twin-model folded-vs-legacy comparisons bit-identical after the
reentrancy refactor.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.nn.layers.activations import softmax
from repro.nn.model import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bayesnn import MultiExitBayesNet
    from repro.core.mcd import MCPrediction
    from repro.core.multi_exit import EarlyExitResult

__all__ = [
    "looped_mc_sample",
    "looped_predict_mc",
    "eager_early_exit",
    "cumulative_exit_ensembles",
    "confidence_early_exit",
]


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


def cumulative_exit_ensembles(exit_probs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Running ensembles: element ``i`` averages exits ``0..i``.

    The paper evaluates confidence exiting both on individual exit
    predictions and on "the largest possible ensemble at each exit"; the
    latter is exactly this cumulative average.
    """
    if not exit_probs:
        raise ValueError("exit_probs must not be empty")
    out: list[np.ndarray] = []
    running = np.zeros_like(exit_probs[0])
    for i, probs in enumerate(exit_probs):
        running = running + probs
        out.append(running / (i + 1))
    return out


def confidence_early_exit(
    exit_probs: Sequence[np.ndarray],
    threshold: float,
    use_ensemble: bool = True,
) -> "EarlyExitResult":
    """Confidence-based early exiting over precomputed exit predictions.

    A sample leaves at the first exit whose confidence (max probability of
    either the exit prediction or the cumulative ensemble, depending on
    ``use_ensemble``) exceeds ``threshold``; samples that never reach the
    threshold use the final exit's prediction.
    """
    from repro.core.multi_exit import EarlyExitResult

    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    candidates = (
        cumulative_exit_ensembles(exit_probs)
        if use_ensemble
        else [np.asarray(p) for p in exit_probs]
    )
    num_exits = len(candidates)
    n = candidates[0].shape[0]

    chosen_probs = candidates[-1].copy()
    exit_indices = np.full(n, num_exits - 1, dtype=np.int64)
    undecided = np.ones(n, dtype=bool)

    for i, probs in enumerate(candidates):
        confident = undecided & (probs.max(axis=1) >= threshold)
        chosen_probs[confident] = probs[confident]
        exit_indices[confident] = i
        undecided &= ~confident
        if not undecided.any():
            break

    distribution = np.bincount(exit_indices, minlength=num_exits) / n
    return EarlyExitResult(
        probs=chosen_probs,
        exit_indices=exit_indices,
        threshold=float(threshold),
        exit_distribution=distribution,
    )
