"""Synthetic dataset generators and loaders."""

from .loaders import DataLoader
from .synthetic import (
    DatasetSplit,
    SyntheticImageDataset,
    cifar100_like,
    cifar10_like,
    mnist_like,
    svhn_like,
)

__all__ = [
    "DataLoader",
    "DatasetSplit",
    "SyntheticImageDataset",
    "mnist_like",
    "cifar10_like",
    "cifar100_like",
    "svhn_like",
]
