"""repro — multi-exit Monte-Carlo-Dropout Bayesian neural networks on (simulated) FPGA.

A from-scratch reproduction of "When Monte-Carlo Dropout Meets Multi-Exit:
Optimizing Bayesian Neural Networks on FPGA" (DAC 2023).  See ``README.md``
for a quickstart and ``docs/architecture.md`` ("Package layout") for the
system inventory.

Subpackages
-----------
``repro.nn``
    NumPy neural-network substrate (layers, models, optimizers, trainers,
    LeNet/VGG/ResNet backbones).
``repro.core``
    Multi-exit MCD BayesNNs, Monte-Carlo sampling, FLOP cost model, Phase-1
    optimization, and the four-phase transformation framework.
``repro.inference``
    Sample-folded inference engine: cached backbone segments shared across
    exits and MC samples, folded stochastic suffixes, and active-set early
    exiting.
``repro.serving``
    Asyncio serving layer: dynamic request batching with bounded-queue
    backpressure over the folded engines, per-request uncertainty results
    and throughput/latency stats.
``repro.uncertainty``
    Calibration (ECE) and uncertainty metrics, deep-ensemble baseline.
``repro.quantization``
    Fixed-point formats and post-training quantization.
``repro.datasets``
    Synthetic stand-ins for MNIST / CIFAR-10 / CIFAR-100 / SVHN.
``repro.hw``
    FPGA substrate: devices, resource/latency/power models, MC-engine
    mapping, co-exploration, and HLS code generation.
``repro.analysis``
    Experiment runners reproducing every table and figure of the paper.
"""

from . import (
    analysis,
    core,
    datasets,
    hw,
    inference,
    nn,
    quantization,
    serving,
    uncertainty,
)

__version__ = "1.2.0"

__all__ = [
    "analysis",
    "core",
    "datasets",
    "hw",
    "inference",
    "nn",
    "quantization",
    "serving",
    "uncertainty",
    "__version__",
]
