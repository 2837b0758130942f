"""FPGA hardware substrate.

Analytical resource / latency / power models, spatial-temporal MC-engine
mapping, algorithm–hardware co-exploration, and HLS code generation — the
stand-in for Vivado-HLS synthesis and on-board measurement.
"""

from . import hls
from .accelerator import (
    AcceleratorConfig,
    AcceleratorModel,
    partition_multi_exit,
    partition_network,
)
from .baselines import (
    CPU_I9_9900K,
    GPU_RTX_2080,
    PUBLISHED_BASELINES,
    PlatformResult,
    ProcessorModel,
    cpu_gpu_projection,
)
from .devices import DEVICES, XCKU115, FPGADevice, get_device
from .dse import (
    CHANNEL_MULTIPLIERS,
    CoExplorer,
    DesignPoint,
    EvaluatedDesignPoint,
    pareto_front,
)
from .latency import LatencyModel, LayerLatency, estimate_layer_cycles
from .mapping import (
    MappingPlan,
    mixed_mapping,
    optimize_mapping,
    spatial_mapping,
    temporal_mapping,
)
from .power import PowerBreakdown, PowerModel
from .resources import LayerResourceModel, ResourceUsage, estimate_layer_resources
from .rng import GaloisLFSR, lfsr_uniform_stream

__all__ = [
    "hls",
    "AcceleratorConfig",
    "AcceleratorModel",
    "partition_network",
    "partition_multi_exit",
    "PlatformResult",
    "ProcessorModel",
    "PUBLISHED_BASELINES",
    "CPU_I9_9900K",
    "GPU_RTX_2080",
    "cpu_gpu_projection",
    "FPGADevice",
    "DEVICES",
    "get_device",
    "XCKU115",
    "CoExplorer",
    "DesignPoint",
    "EvaluatedDesignPoint",
    "CHANNEL_MULTIPLIERS",
    "pareto_front",
    "LatencyModel",
    "LayerLatency",
    "estimate_layer_cycles",
    "MappingPlan",
    "spatial_mapping",
    "temporal_mapping",
    "mixed_mapping",
    "optimize_mapping",
    "PowerBreakdown",
    "PowerModel",
    "LayerResourceModel",
    "ResourceUsage",
    "estimate_layer_resources",
    "GaloisLFSR",
    "lfsr_uniform_stream",
]
