"""Training-step benchmark: max-pool as a running maximum with an index.

``MaxPool2D`` used to train through a column matrix: ``im2col``, ``argmax``
and ``max`` over each window's row, then a zero ``(M, C, pool²)`` matrix
scattered into by fancy indexing and a ``col2im`` for the backward.  Where
its probe allows, it now folds the window positions into the output with
``np.maximum``, records the winning position in a ``uint8`` index, and
adds the gradient back one window position at a time — ``col2im``'s
additions on ``col2im``'s operands, so both paths give the same bits.

Gate: at ``pool1`` of the ``train_distill`` LeNet (full width, 20x20
inputs, N = 32, fed the conv output it sees in training) the scan path's
forward plus backward is at least ``POOL_MIN_SPEEDUP`` times the column
path's, and bit-identical to it.  Both sides are NumPy on one thread with
the same inputs, so the ratio says what the column round trip costs, not
how fast the box is.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.nn.context import ForwardContext
from repro.nn.layers import pooling

from . import reporting
from .timing import best_seconds_each

#: 2.13-2.74x over ten runs on the 2-vCPU dev box (0.61-0.99 ms vs
#: 1.68-2.14 ms; the box changes speed between runs, the ratio much less)
POOL_MIN_SPEEDUP = 1.5
POOL_BATCH = 32
REPEATS = 200


@pytest.mark.timeout(300)
def test_pool_training_step_beats_the_column_path():
    """Gate: pool1 forward + backward >= POOL_MIN_SPEEDUP x the column path."""
    spec = lenet5_spec(input_shape=(1, 20, 20), num_classes=10)
    model = MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )
    backbone = model.backbone
    pool = backbone.layers[2]
    assert pool.name == "pool1" and pool.scans(np.float64)
    rng = np.random.default_rng(0)
    x = backbone.forward_range(
        rng.normal(size=(POOL_BATCH, 1, 20, 20)), 0, 2, training=True
    )
    grad = rng.normal(size=(POOL_BATCH,) + pool.output_shape)

    def step():
        ctx = ForwardContext()
        out = pool.forward(x, training=True, ctx=ctx)
        return out, pool.backward(grad, ctx=ctx)

    def column_step():
        with mock.patch.object(pooling, "_max_is_a_scan", lambda w, d: False):
            return step()

    for got, want in zip(step(), column_step()):
        assert got.tobytes() == want.tobytes()

    t_scan, t_column = best_seconds_each(step, column_step, repeats=REPEATS)
    speedup = t_column / t_scan
    print(
        f"\npool1 training step (lenet5 20x20, N={POOL_BATCH}): column path "
        f"{t_column * 1e3:.3f} ms, running maximum {t_scan * 1e3:.3f} ms "
        f"({speedup:.2f}x), bit-exact"
    )
    reporting.record(
        "train_pool_step",
        arch="lenet5_20x20",
        batch=POOL_BATCH,
        column_path_s=t_column,
        running_max_s=t_scan,
        pool_step_speedup=speedup,
        bit_exact=True,
    )
    assert speedup >= POOL_MIN_SPEEDUP, (
        f"pool1's training step only {speedup:.2f}x over the column path "
        f"({t_column * 1e3:.3f} ms vs {t_scan * 1e3:.3f} ms), gate "
        f"{POOL_MIN_SPEEDUP}x — a column matrix or a masked copy is back"
    )
