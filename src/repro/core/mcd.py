"""Monte-Carlo-dropout sampling utilities.

The building blocks here are architecture-agnostic:

* :func:`insert_mcd_into_head` implements the paper's MCD-placement rule —
  dropout layers are inserted *starting from the exit and moving towards the
  input*, one in front of each of the last ``n`` parameterised layers.
* :func:`deterministic_forward` replaces every MCD layer by its
  expectation, for the non-Bayesian point predictions.
* :class:`MCPrediction` is the result type of Monte-Carlo sampling.

The sampling itself lives in :mod:`repro.inference`: its engines evaluate
the deterministic prefix once — the accelerator's cached-tensor clone step
(Phase 2, Figure 4) — and fold the ``S`` samples into the batch axis so the
stochastic suffix runs in a single pass, exactly as the replicated MC
engines evaluate all samples at once in silicon
(:func:`repro.inference.folding.sample_suffix`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.context import ForwardContext, resolve_context
from ..nn.layers import Conv2D, Dense, Layer, MCDropout
from ..nn.model import Network

__all__ = ["insert_mcd_into_head", "deterministic_forward", "MCPrediction"]


def insert_mcd_into_head(
    layers: list[Layer],
    num_mcd_layers: int,
    dropout_rate: float,
    seed: int | None = None,
    name_prefix: str = "mcd",
) -> list[Layer]:
    """Insert MC-dropout layers in front of the last parameterised layers.

    Parameters
    ----------
    layers:
        The (unbuilt) layers of an exit head, in execution order.
    num_mcd_layers:
        How many MCD layers to insert.  ``0`` returns the layers unchanged
        (the non-Bayesian multi-exit baseline).  If larger than the number of
        parameterised layers in the head, one MCD layer is placed before each
        parameterised layer.
    dropout_rate:
        The Bernoulli drop probability of every inserted layer.
    """
    if num_mcd_layers < 0:
        raise ValueError("num_mcd_layers must be non-negative")
    if num_mcd_layers == 0:
        return list(layers)

    parameterised = [
        i for i, layer in enumerate(layers) if isinstance(layer, (Conv2D, Dense))
    ]
    if not parameterised:
        raise ValueError("head has no parameterised layers to attach MCD to")

    # choose insertion points from the exit (end of the list) backwards
    targets = sorted(parameterised[-num_mcd_layers:])
    out: list[Layer] = []
    inserted = 0
    for i, layer in enumerate(layers):
        if i in targets:
            out.append(
                MCDropout(
                    rate=dropout_rate,
                    seed=None if seed is None else seed + inserted,
                    name=f"{name_prefix}_{inserted}",
                )
            )
            inserted += 1
        out.append(layer)
    return out


def deterministic_forward(
    network: Network, x: np.ndarray, ctx: ForwardContext | None = None
) -> np.ndarray:
    """Forward pass with every MC-dropout layer replaced by its expectation.

    With inverted dropout the expectation of the MCD layer is the identity,
    so this skips the MCD layers.  Used for the non-Bayesian point
    prediction that Table I's "SE"/"ME" rows rely on.
    """
    ctx = resolve_context(ctx)
    out = x
    for layer in network.layers:
        if not isinstance(layer, MCDropout):
            out = layer.forward(out, training=False, ctx=ctx)
    return out


@dataclass
class MCPrediction:
    """Result of Monte-Carlo sampling.

    Attributes
    ----------
    mean_probs:
        Mean predictive distribution, shape ``(N, classes)``.
    sample_probs:
        Per-sample distributions, shape ``(S, N, classes)``.
    """

    mean_probs: np.ndarray
    sample_probs: np.ndarray

    @property
    def num_samples(self) -> int:
        return int(self.sample_probs.shape[0])

    def predicted_labels(self) -> np.ndarray:
        return self.mean_probs.argmax(axis=1)

