"""Training-step benchmark: max-pool as a running maximum with an index.

``MaxPool2D`` used to train through a column matrix: ``im2col``, ``argmax``
and ``max`` over each window's row, then a zero ``(M, C, pool²)`` matrix
scattered into by fancy indexing and a ``col2im`` for the backward.  That
path is now the tests' oracle (``tests/nn/column_pool.py``).  The layer
folds the window positions into the output with ``np.maximum``, records
the winning position in a ``uint8`` index, and scatters the gradient onto
those positions in one ``np.add.at``.

Gate: at ``pool1`` of the ``train_distill`` LeNet (full width, 20x20
inputs, N = 32, fed the conv output it sees in training) the layer's
forward plus backward is at least ``POOL_MIN_SPEEDUP`` times the column
oracle's, and bit-identical to it.  Both sides are NumPy on one thread with
the same inputs, so the ratio says what the column round trip costs, not
how fast the box is.  Before the timed repeats the allocator is brought to
the steady page state of a process that has trained already, so the ratio
reads alike whether the file runs alone or after other tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.nn.context import ForwardContext
from tests.nn.column_pool import bit_exact, column_backward, column_forward

from . import reporting
from .timing import best_seconds_each

#: 4.84-5.61x (median 5.43x) over twenty runs of this file alone on the
#: 2-vCPU dev box and 4.65-5.63x (median 5.24x) over twenty runs after
#: another training test file in the same process; without the allocator
#: settling, alone read 3.48-3.91x and after a training test 4.71-5.54x
POOL_MIN_SPEEDUP = 1.5
POOL_BATCH = 32
REPEATS = 200
#: below glibc's 32 MiB ceiling on the dynamic mmap threshold
ALLOCATOR_BLOCK_BYTES = 16 << 20


def _keep_freed_pages_mapped():
    """Bring the allocator to the steady state a training process is in.

    Freeing an mmap-ed block raises glibc's mmap threshold to its size and
    the heap's trim threshold to twice that, so later temporaries below it
    come from the heap and stay mapped when freed.  Without it the column
    side's frees unmap or trim its temporaries between calls, and both
    sides pay page faults on fresh allocations that a process which has
    trained already does not.  Other allocators just allocate and free it.
    """
    np.empty(ALLOCATOR_BLOCK_BYTES, dtype=np.uint8)


@pytest.mark.timeout(300)
def test_pool_training_step_beats_the_column_path():
    """Gate: pool1 forward + backward >= POOL_MIN_SPEEDUP x the column path."""
    spec = lenet5_spec(input_shape=(1, 20, 20), num_classes=10)
    model = MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )
    backbone = model.backbone
    pool = backbone.layers[2]
    assert pool.name == "pool1" and bit_exact(pool, np.float64)
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
        ctx = ForwardContext()
        out = column_forward(pool, x, training=True, ctx=ctx)
        return out, column_backward(pool, grad, ctx=ctx)

    for got, want in zip(step(), column_step()):
        assert got.tobytes() == want.tobytes()

    _keep_freed_pages_mapped()
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
