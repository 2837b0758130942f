"""Folded Monte-Carlo sampling of a flat network, for tests and benchmarks.

The product engine (:class:`repro.inference.InferenceEngine`) serves
multi-exit models only.  The fold machinery it runs per exit head —
:class:`~repro.inference.plan.PrefixPlan` for the deterministic prefix, then
:func:`~repro.inference.folding.sample_suffix` — is driven here over a whole
flat :class:`~repro.nn.model.Network`, so the folded-vs-looped tests can
compare it bitwise against ``reference_loops.looped_mc_sample``.
``fold_batch`` is the clone step as an explicit tile, the reference the
fold tests and benchmarks compare ``MCDropout.fold`` and the per-slice
evaluation against.  ``reseed`` restarts one MC-dropout layer's masks,
``reseed_mcd`` every MC-dropout layer of a network.
"""

from __future__ import annotations

import numpy as np

from repro.core.mcd import MCPrediction
from repro.inference.folding import sample_suffix
from repro.inference.plan import PrefixPlan
from repro.nn.context import ForwardContext
from repro.nn.layers import MCDropout
from repro.nn.model import Network

__all__ = ["fold_batch", "folded_mc_sample", "reseed", "reseed_mcd"]


def fold_batch(x: np.ndarray, num_samples: int) -> np.ndarray:
    """Tile a batch ``(N, …)`` sample-major into ``(S·N, …)``.

    Row ``s·N + n`` of the result is example ``n`` of Monte-Carlo sample
    ``s`` — the clone step of the accelerator's spatial mapping, which
    :func:`~repro.inference.folding.sample_suffix` leaves to the suffix's
    first MC-dropout layer.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    return np.tile(x, (num_samples,) + (1,) * (x.ndim - 1))


def folded_mc_sample(
    network: Network,
    x: np.ndarray,
    num_samples: int,
    ctx: ForwardContext,
    plan: PrefixPlan | None = None,
) -> MCPrediction:
    """``num_samples`` MC samples: planned prefix once, then one folded suffix."""
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    split = network.first_stochastic_index()
    plan = PrefixPlan(network) if plan is None else plan
    prefix = plan.forward_range(x, 0, split, ctx)
    sample_probs = sample_suffix(network, prefix, split, num_samples, ctx)
    return MCPrediction(mean_probs=sample_probs.mean(axis=0), sample_probs=sample_probs)


def reseed(layer: MCDropout, seed: int) -> None:
    """Restart ``layer``'s masks from ``seed``, in every context.

    The new seed is recorded on the layer, and the ``seed_epoch`` bump makes
    **every** :class:`~repro.nn.context.ForwardContext` — the process-wide
    default and each engine replica's private one — re-derive its stream
    for this layer on its next draw.  Two ``reseed(layer, s)`` calls with
    the same ``s`` therefore replay the same mask sequence in whichever
    context draws next.
    """
    layer.seed = int(seed)
    layer.seed_epoch += 1


def reseed_mcd(network: Network, seed: int) -> None:
    """Reseed the network's MCD layers ``seed, seed + 1, …`` in layer order."""
    for offset, idx in enumerate(network.stochastic_layer_indices()):
        layer = network.layers[idx]
        if isinstance(layer, MCDropout):
            reseed(layer, seed + offset)
