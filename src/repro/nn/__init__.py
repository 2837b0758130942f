"""NumPy neural-network substrate.

This subpackage is a self-contained, from-scratch deep-learning stack (layers,
models, losses, optimizers, trainers, reference architectures) that replaces
the PyTorch/Keras dependency of the original paper.  See
``docs/architecture.md``, "The ``ForwardContext`` contract", for how
layers stay stateless under concurrent forwards.
"""

from . import architectures, layers
from .context import ForwardContext, resolve_context
from .losses import CrossEntropyLoss, DistillationLoss
from .model import Network
from .optimizers import SGD
from .training import (
    DistillationTrainer,
    Trainer,
    TrainingHistory,
    iterate_minibatches,
)

__all__ = [
    "architectures",
    "layers",
    "ForwardContext",
    "resolve_context",
    "Network",
    "CrossEntropyLoss",
    "DistillationLoss",
    "SGD",
    "Trainer",
    "DistillationTrainer",
    "TrainingHistory",
    "iterate_minibatches",
]
