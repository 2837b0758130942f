"""Layer zoo for the NumPy neural-network substrate."""

from .activations import ReLU, log_softmax, softmax
from .base import Layer, Parameter
from .batchnorm import BatchNorm
from .conv import Conv2D
from .dense import Dense
from .dropout import MCDropout
from .pooling import GlobalAvgPool2D, MaxPool2D
from .reshape import Flatten
from .residual import ResidualBlock

__all__ = [
    "Layer",
    "Parameter",
    "ReLU",
    "softmax",
    "log_softmax",
    "BatchNorm",
    "Conv2D",
    "Dense",
    "MCDropout",
    "GlobalAvgPool2D",
    "MaxPool2D",
    "Flatten",
    "ResidualBlock",
]
