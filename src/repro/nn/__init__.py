"""NumPy neural-network substrate.

This subpackage is a self-contained, from-scratch deep-learning stack (layers,
models, losses, optimizers, trainers, reference architectures) that replaces
the PyTorch/Keras dependency of the original paper.  See
``docs/architecture.md``, "The ``ForwardContext`` contract", for how
layers stay stateless under concurrent forwards.
"""

from . import architectures, layers
from .context import ForwardContext, default_context, resolve_context
from .losses import CrossEntropyLoss, DistillationLoss, MSELoss
from .model import Network
from .optimizers import SGD, Adam, CosineLR, StepLR
from .training import (
    DistillationTrainer,
    Trainer,
    TrainingHistory,
    evaluate_classifier,
    iterate_minibatches,
)

__all__ = [
    "architectures",
    "layers",
    "ForwardContext",
    "default_context",
    "resolve_context",
    "Network",
    "CrossEntropyLoss",
    "DistillationLoss",
    "MSELoss",
    "SGD",
    "Adam",
    "StepLR",
    "CosineLR",
    "Trainer",
    "DistillationTrainer",
    "TrainingHistory",
    "evaluate_classifier",
    "iterate_minibatches",
]
