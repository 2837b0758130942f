"""Shared fixtures for the test suite.

Fixtures deliberately build *small* networks and datasets (tiny images, few
channels) so the full suite stays fast while still exercising every code
path of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.datasets import SyntheticImageDataset
from repro.nn.architectures import lenet5_spec, resnet_spec, vgg_spec


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def tiny_images(rng) -> np.ndarray:
    """A small batch of 1-channel 8x8 images."""
    return rng.normal(size=(4, 1, 8, 8))


@pytest.fixture
def tiny_rgb_images(rng) -> np.ndarray:
    """A small batch of 3-channel 8x8 images."""
    return rng.normal(size=(4, 3, 8, 8))


@pytest.fixture
def tiny_dataset() -> SyntheticImageDataset:
    """A small learnable synthetic dataset (5 classes, 12x12 images)."""
    return SyntheticImageDataset(
        "tiny",
        input_shape=(1, 12, 12),
        num_classes=5,
        train_size=96,
        test_size=48,
        noise_level=0.4,
        seed=0,
    )


def arena_bytes(arena) -> int:
    """Bytes a ``ColumnArena`` holds: column buffer plus bordered images."""
    return arena._columns.nbytes + sum(i.nbytes for i in arena._bordered.values())


def conv_output_layout(x: np.ndarray) -> np.ndarray:
    """``x`` as a convolution hands it on: the NCHW view of NHWC memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def stepped_strides(a: np.ndarray) -> list[int]:
    """Strides of the axes that have any: an extent-1 axis is never stepped
    along, so NumPy leaves its stride arbitrary (it differs between a
    transposed view and the ufunc result of that same view)."""
    return [s for s, extent in zip(a.strides, a.shape) if extent > 1]


def small_lenet_spec(width_multiplier: float = 1.0):
    """LeNet-5 spec on 12x12 inputs with 5 classes (fast to train)."""
    return lenet5_spec(
        input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5 * width_multiplier
    )


def small_resnet_spec(width_multiplier: float = 1.0):
    """Two-stage ResNet on 8x8 RGB inputs."""
    return resnet_spec(
        "resnet10",
        input_shape=(3, 8, 8),
        num_classes=4,
        width_multiplier=0.125 * width_multiplier,
        max_stages=2,
    )


def small_vgg_spec(width_multiplier: float = 1.0):
    """Two-stage VGG-11 on 8x8 RGB inputs."""
    return vgg_spec(
        "vgg11",
        input_shape=(3, 8, 8),
        num_classes=4,
        width_multiplier=0.125 * width_multiplier,
        max_stages=2,
    )


@pytest.fixture
def lenet_spec_small():
    return small_lenet_spec()


@pytest.fixture
def resnet_spec_small():
    return small_resnet_spec()


@pytest.fixture
def vgg_spec_small():
    return small_vgg_spec()


@pytest.fixture
def multi_exit_model(lenet_spec_small) -> MultiExitBayesNet:
    """A 2-exit Bayesian LeNet on 12x12 inputs."""
    return MultiExitBayesNet(
        lenet_spec_small,
        MultiExitConfig(
            num_exits=2,
            mcd_layers_per_exit=1,
            dropout_rate=0.25,
            default_mc_samples=4,
            seed=0,
        ),
    )
