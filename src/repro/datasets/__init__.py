"""Synthetic dataset generators."""

from .synthetic import DatasetSplit, SyntheticImageDataset, cifar100_like, mnist_like

__all__ = [
    "DatasetSplit",
    "SyntheticImageDataset",
    "mnist_like",
    "cifar100_like",
]
