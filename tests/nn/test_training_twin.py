"""Training through the row-run column kernels gives the historical bits.

``im2col`` / ``col2im`` are pure data movement plus the same additions in
the same order, so a model trained through them must match, to the byte,
one trained through the element-wise oracles kept in ``test_tensor.py``.
The gradient image's *memory order* is part of that: ``BatchNorm``'s
backward sums follow it, so a ``col2im`` with the right values in another
layout keeps LeNet's bits and changes ResNet's and VGG's.

The max-pool backward's one scatter has the same duty against the
per-window-position loop it replaced (``test_maxpool_paths``' oracle).
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn import SGD, DistillationTrainer, tensor
from repro.nn.architectures import lenet5_spec, resnet_spec, vgg_spec
from repro.nn.layers import conv, pooling

from .test_maxpool_paths import looped_index_backward
from .test_tensor import _historical_col2im, _historical_im2col

STEPS = 6

#: name -> (spec factory, input shape, exits, batch): the ``train_distill``
#: LeNet at its shapes, and two BatchNorm networks
MODELS = {
    "lenet5_20x20": (
        lambda: lenet5_spec(input_shape=(1, 20, 20), num_classes=10),
        (1, 20, 20),
        2,
        32,
    ),
    "resnet10": (
        lambda: resnet_spec("resnet10", (3, 16, 16), width_multiplier=0.125),
        (3, 16, 16),
        3,
        8,
    ),
    "vgg11": (
        lambda: vgg_spec("vgg11", input_shape=(3, 16, 16), width_multiplier=0.125),
        (3, 16, 16),
        2,
        8,
    ),
}


def _oracle_im2col(x, kernel_h, kernel_w, stride=1, padding=0, arena=None):
    return _historical_im2col(x, kernel_h, kernel_w, stride, padding)


def _oracle_col2im(cols, input_shape, kernel_h, kernel_w, stride=1, padding=0):
    return _historical_col2im(cols, input_shape, kernel_h, kernel_w, stride, padding)


@contextlib.contextmanager
def historical_kernels():
    """Every training-path ``im2col`` / ``col2im`` name bound to the oracles."""
    with contextlib.ExitStack() as stack:
        for module in (tensor, conv, pooling):
            stack.enter_context(mock.patch.object(module, "im2col", _oracle_im2col))
            stack.enter_context(mock.patch.object(module, "col2im", _oracle_col2im))
        yield


def _train(name):
    """Losses and parameter bytes after ``STEPS`` distillation steps."""
    make_spec, shape, exits, batch = MODELS[name]
    model = MultiExitBayesNet(
        make_spec(), MultiExitConfig(num_exits=exits, mcd_layers_per_exit=1, seed=0)
    )
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    trainer = DistillationTrainer(model, optimizer, batch_size=batch)
    rng = np.random.default_rng(0)
    losses = []
    for _ in range(STEPS):
        x = rng.normal(size=(batch,) + shape)
        y = rng.integers(0, model.num_classes, size=batch)
        losses.append(trainer.train_on_batch(x, y)[0])
    return losses, [p.value.tobytes() for p in model.parameters()]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_training_bits_match_the_historical_kernels(name):
    with historical_kernels():
        want_losses, want_params = _train(name)
    got_losses, got_params = _train(name)
    assert got_losses == want_losses
    assert got_params == want_params


@pytest.mark.parametrize("name", ["lenet5_20x20", "vgg11"])
def test_training_bits_match_the_looped_pool_backward(name):
    with mock.patch.object(
        pooling.MaxPool2D, "_index_backward", looped_index_backward
    ):
        want_losses, want_params = _train(name)
    got_losses, got_params = _train(name)
    assert got_losses == want_losses
    assert got_params == want_params
