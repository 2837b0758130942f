"""The paper's core contribution (docs/architecture.md, "Package layout").

Multi-exit MCD BayesNNs, Monte-Carlo sampling with cached backbones, the
FLOP cost model (Eq. 1–3), the Phase-1 multi-exit optimizer, and the
four-phase transformation framework.
"""

from .bayesnn import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet
from .flops import (
    FlopBreakdown,
    layer_flops,
    multi_exit_sampling_flops,
    network_flops,
    reduction_rate,
)
from .framework import AcceleratorDesign, FrameworkConfig, TransformationFramework
from .mcd import MCPrediction, deterministic_forward, insert_mcd_into_head
from .multi_exit import (
    CONFIDENCE_THRESHOLDS,
    DROPOUT_RATE_GRID,
    EarlyExitResult,
    ExitHeadConfig,
    build_exit_head,
)
from .optimization import (
    CandidateConfig,
    EvaluatedDesign,
    MultiExitOptimizer,
    UserConstraints,
)

__all__ = [
    "MultiExitBayesNet",
    "MultiExitConfig",
    "single_exit_bayesnet",
    "FlopBreakdown",
    "layer_flops",
    "network_flops",
    "multi_exit_sampling_flops",
    "reduction_rate",
    "AcceleratorDesign",
    "FrameworkConfig",
    "TransformationFramework",
    "MCPrediction",
    "deterministic_forward",
    "insert_mcd_into_head",
    "CONFIDENCE_THRESHOLDS",
    "DROPOUT_RATE_GRID",
    "EarlyExitResult",
    "ExitHeadConfig",
    "build_exit_head",
    "CandidateConfig",
    "EvaluatedDesign",
    "MultiExitOptimizer",
    "UserConstraints",
]
