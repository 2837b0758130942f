"""Sample-folded inference engine (the paper's Figure 4 analogue).

docs/architecture.md, "The folded engine and its bit-exactness contract",
states the rules the folding relies on.

The paper's accelerator caches the deterministic backbone activation once
and evaluates the ``S`` Monte-Carlo samples spatially, in parallel MC
engines.  This subpackage is the software counterpart: Monte-Carlo samples
are folded into the batch axis and the stochastic suffix runs once, with
per-segment backbone activations cached and shared across all exits and all
samples.

Public surface
--------------
:class:`InferenceEngine`
    Folded MC prediction, per-exit distributions and active-set early
    exiting over a multi-exit MCD BayesNN.
:mod:`repro.inference.folding`
    ``unfold_samples`` / ``folded_forward_range`` primitives with a
    documented bit-exactness contract — MC-dropout masks the fold, ``Dense``
    runs stacked per-sample GEMMs, every other layer runs per sample slice —
    and ``sample_suffix``, the one fold → stochastic suffix → unfold sampler
    the engine calls per exit head.
:mod:`repro.inference.plan`
    The static plan the engine runs its deterministic backbone through:
    one column arena per engine replica and calling thread, BatchNorm/ReLU/
    residual add in place on the GEMM outputs, bit-identical to
    ``Layer.forward``.

The pre-folding per-sample loops the engine must match bit-for-bit are a
test oracle and live in ``tests/inference/reference_loops.py``.
"""

from .engine import InferenceEngine
from .folding import folded_forward_range, sample_suffix, unfold_samples

__all__ = [
    "InferenceEngine",
    "unfold_samples",
    "folded_forward_range",
    "sample_suffix",
]
