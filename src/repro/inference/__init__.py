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
    Folded MC prediction, per-exit distributions, active-set early exiting
    and microbatched streaming over a multi-exit MCD BayesNN.
:class:`NetworkEngine`
    The same folded hot path for flat single-exit networks.
:mod:`repro.inference.folding`
    ``fold_batch`` / ``unfold_samples`` / ``folded_forward_range`` primitives
    with a documented bit-exactness contract.
:mod:`repro.inference.plan`
    The static plan every engine runs its deterministic prefix through:
    one column arena per engine replica and calling thread, BatchNorm/ReLU/
    residual add in place on the GEMM outputs, bit-identical to
    ``Layer.forward``.
:func:`iter_microbatches`
    The synchronous microbatching primitive behind the engines'
    ``predict_stream``.  Batching independent async arrivals is the serving
    tier's job (:class:`repro.serving.DynamicBatcher`), not this package's.

The pre-folding per-sample loops the engines must match bit-for-bit are a
test oracle and live in ``tests/inference/reference_loops.py``.
"""

from .engine import InferenceEngine, NetworkEngine
from .folding import fold_batch, folded_forward_range, unfold_samples
from .streaming import iter_microbatches

__all__ = [
    "InferenceEngine",
    "NetworkEngine",
    "fold_batch",
    "unfold_samples",
    "folded_forward_range",
    "iter_microbatches",
]
