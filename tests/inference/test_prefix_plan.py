"""The planned deterministic prefix vs the layer-by-layer oracle.

:mod:`repro.inference.plan` promises the *bits and strides* of
``model.backbone_activations(x)`` (``Layer.forward`` layer by layer).  The
first half of this file checks that promise across architectures, batch
sizes and every way weights or engines change; the second half pins each
numbered rule of the plan's docstring with a test that fails when the rule
is broken.  ``MaxPool2D.forward`` runs the same running maximum as the
plan's pool step, so wherever a max-pool is on the oracle side the oracle
runs under :func:`column_path`.
"""

from __future__ import annotations

import asyncio
import itertools
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet
from repro.inference.plan import PrefixPlan
from repro.nn.architectures import resnet_spec
from repro.nn.context import ForwardContext
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    ResidualBlock,
)
from repro.nn.model import Network
from repro.nn.optimizers import SGD
from repro.nn.tensor import ColumnArena, im2col
from repro.quantization import QuantizationConfig, quantize_network
from repro.serving import ServingConfig, ServingEngine

from ..conftest import (
    arena_bytes,
    conv_output_layout,
    small_lenet_spec,
    small_vgg_spec,
    stepped_strides,
)
from ..nn.column_pool import bit_exact, column_path
from .folded_harness import folded_mc_sample, reseed_mcd
from .reference_loops import eager_early_exit, looped_mc_sample, looped_predict_mc


def _resnet10_spec():
    """All four stages: identity and projection shortcuts, strides 1 and 2."""
    return resnet_spec("resnet10", (3, 8, 8), num_classes=4, width_multiplier=0.125)


ARCHS = {
    "lenet": (small_lenet_spec, (1, 12, 12), 2),
    "vgg": (small_vgg_spec, (3, 8, 8), 2),
    "resnet10": (_resnet10_spec, (3, 8, 8), 4),
}


def _randomise_batchnorm(network: Network, seed: int = 5) -> None:
    """Give every BatchNorm non-trivial statistics and affine parameters.

    A freshly built BatchNorm is the identity up to ``epsilon`` (mean 0,
    var 1, gamma 1, beta 0): the four roundings would go unexercised.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for layer in network.layers:
        layers += layer.sublayers() if isinstance(layer, ResidualBlock) else [layer]
    for layer in layers:
        if isinstance(layer, BatchNorm):
            c = layer.gamma.value.shape[0]
            layer.running_mean = rng.normal(size=c)
            layer.running_var = rng.uniform(0.3, 3.0, size=c)
            layer.gamma.assign(rng.normal(1.0, 0.4, size=c))
            layer.beta.assign(rng.normal(0.0, 0.4, size=c))


def _model(arch: str, seed: int = 0) -> MultiExitBayesNet:
    spec_fn, _, exits = ARCHS[arch]
    model = MultiExitBayesNet(
        spec_fn(),
        MultiExitConfig(
            num_exits=exits, mcd_layers_per_exit=1, default_mc_samples=5, seed=seed
        ),
    )
    _randomise_batchnorm(model.backbone)
    return model


def _batch(arch: str, n: int, seed: int = 0, dtype=np.float64) -> np.ndarray:
    shape = ARCHS[arch][1]
    return np.random.default_rng(seed).normal(size=(n,) + shape).astype(dtype)


def _cold(model: MultiExitBayesNet):
    """An engine replica that never serves a request from its cache."""
    engine = model.engine.replicate()
    engine._cache.maxsize = 0
    return engine


def assert_same_arrays(got, want) -> None:
    """Bytes, dtype, shape *and* strides of every array in two lists."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert stepped_strides(g) == stepped_strides(w), (g.strides, w.strides)
        assert g.flags.c_contiguous == w.flags.c_contiguous
        assert g.flags.f_contiguous == w.flags.f_contiguous
        assert g.tobytes() == w.tobytes()


# --------------------------------------------------------------------------- #
# plan vs layer by layer
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_exit_activations_match_layer_by_layer(arch, n):
    model = _model(arch)
    x = _batch(arch, n)
    got = _cold(model).backbone_activations(x)
    with column_path():
        assert_same_arrays(got, model.backbone_activations(x))


@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_predict_mc_matches_the_looped_oracle(arch, n):
    planned, looped = _model(arch), _model(arch)  # twins: MCD streams are stateful
    x = _batch(arch, n)
    got = planned.predict_mc(x, 5)
    with column_path():
        want = looped_predict_mc(looped, x, 5)
    assert_same_arrays(
        [got.sample_probs, got.mean_probs], [want.sample_probs, want.mean_probs]
    )


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_flat_network_prefix_matches_layer_by_layer(arch):
    spec_fn, shape, _ = ARCHS[arch]
    planned = single_exit_bayesnet(spec_fn(), num_mcd_layers=1, seed=0)
    looped = single_exit_bayesnet(spec_fn(), num_mcd_layers=1, seed=0)
    for net in (planned, looped):
        _randomise_batchnorm(net)
    reseed_mcd(planned, 3)
    reseed_mcd(looped, 3)
    plan, ctx = PrefixPlan(planned), ForwardContext()
    split = planned.first_stochastic_index()
    for n in (1, 6):
        x = np.random.default_rng(n).normal(size=(n,) + shape)
        assert_same_arrays(
            [plan.forward_range(x, 0, split, ForwardContext())],
            [looped.forward_range(x, 0, split, training=False)],
        )
        got = folded_mc_sample(planned, x, 4, ctx, plan)
        want = looped_mc_sample(looped, x, 4)
        assert_same_arrays([got.sample_probs], [want.sample_probs])


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_batch_size_sequence_regrows_the_arena(arch):
    model = _model(arch)
    engine = _cold(model)
    sizes = []
    for i, n in enumerate((4, 16, 1, 16) * 2):
        x = _batch(arch, n, seed=i)
        assert_same_arrays(
            engine.backbone_activations(x), model.backbone_activations(x)
        )
        sizes.append(arena_bytes(engine._plan.arena))
    assert sizes[1] > sizes[0], "a larger batch must grow the arena"
    # a batch of 1 may add images: its pool outputs are NCHW-contiguous where
    # a larger batch's are channels-last, and the arena keeps one image per
    # layout and geometry — but once the size sequence repeats, nothing grows
    assert sizes[3:] == [sizes[3]] * 5, "the arena is bounded by the largest batch"


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_active_subsets_run_through_the_plan(arch):
    """Early exit hands later segments a fancy-indexed row subset."""
    model = _model(arch)
    engine = _cold(model)
    x = _batch(arch, 12)
    ctx = ForwardContext()
    bounds = model._segment_bounds()
    first = model.backbone.forward_range(x, *bounds[0], training=False)
    for keep in ([0, 3, 4, 9, 11], [7], list(range(12))):
        subset = first[np.asarray(keep)]
        assert_same_arrays(
            [engine._plan.forward_range(subset, *bounds[1], ctx)],
            [model.backbone.forward_range(subset, *bounds[1], training=False)],
        )


@pytest.mark.parametrize("threshold", [0.3, 0.6, 0.95])
def test_early_exit_matches_the_eager_oracle(threshold):
    model = MultiExitBayesNet(
        _resnet10_spec(), MultiExitConfig(num_exits=4, mcd_layers_per_exit=0, seed=0)
    )
    _randomise_batchnorm(model.backbone)
    x = _batch("resnet10", 16)
    lazy = _cold(model).early_exit_predict(x, threshold, use_ensemble=False)
    eager = eager_early_exit(model, x, threshold, use_ensemble=False)
    np.testing.assert_array_equal(lazy.exit_indices, eager.exit_indices)
    # rows retired at the first exit saw the full batch on both paths
    first = lazy.exit_indices == 0
    assert lazy.probs[first].tobytes() == eager.probs[first].tobytes()
    np.testing.assert_allclose(lazy.probs, eager.probs, atol=1e-10)


# --------------------------------------------------------------------------- #
# weights and engines change underneath the plan
# --------------------------------------------------------------------------- #
def test_plan_follows_every_way_weights_change():
    """Rule 5: nothing derived from a weight survives a call."""
    model = _model("resnet10")
    engine = model.engine  # the model's own engine: training must reach it
    x = _batch("resnet10", 6)

    def check():
        got = engine.backbone_activations(x)
        assert_same_arrays(got, model.backbone_activations(x))
        return got[-1].tobytes()

    seen = [check()]

    # an optimizer step after a training-mode pass (moves BN statistics too)
    optimizer = SGD(model.parameters(), lr=0.05)
    logits = model.forward_exits(x, training=True)
    model.backward_exits([np.ones_like(l) / l.size for l in logits])
    optimizer.step()
    seen.append(check())

    for param in model.backbone.parameters():
        param.assign(param.value * 1.5 + 0.01)
    seen.append(check())

    quantize_network(model.backbone, QuantizationConfig(weight_bits=6))
    seen.append(check())

    assert len(set(seen)) == len(seen), "a weight change left the activations unchanged"


def test_swap_model_serves_the_new_model_bits():
    x = _batch("resnet10", 4)
    config = ServingConfig(num_samples=4, workers=1)

    async def serve(first, second=None):
        async with ServingEngine(first, config) as server:
            results = [await server.submit(row) for row in x[:2]]
            if second is not None:
                await server.swap_model(second)
            results += [await server.submit(row) for row in x[2:]]
            return [r.probs for r in results]

    swapped = asyncio.run(serve(_model("resnet10", seed=0), _model("resnet10", seed=3)))
    old = asyncio.run(serve(_model("resnet10", seed=0)))
    new = asyncio.run(serve(_model("resnet10", seed=3)))
    assert_same_arrays(swapped, old[:2] + new[2:])
    assert swapped[2].tobytes() != old[2].tobytes()


def test_replicas_own_their_plans_and_pickling_leaves_the_arena_home():
    model = _model("resnet10")
    engine = _cold(model)
    x = _batch("resnet10", 8)
    cold_pickle = pickle.dumps(engine)
    want = model.backbone_activations(x)
    assert_same_arrays(engine.backbone_activations(x), want)
    assert arena_bytes(engine._plan.arena) > 0

    replica = engine.replicate()
    assert replica._plan is not engine._plan
    assert arena_bytes(replica._plan.arena) == 0
    assert_same_arrays(replica.backbone_activations(x), want)

    warm_pickle = pickle.dumps(engine)
    assert len(warm_pickle) == len(cold_pickle), "the arena crossed the pickle boundary"
    received = pickle.loads(warm_pickle)
    assert arena_bytes(received._plan.arena) == 0
    received._cache.maxsize = 0
    assert_same_arrays(
        received.backbone_activations(x), received.model.backbone_activations(x)
    )
    assert_same_arrays(received.backbone_activations(x), want)


def test_two_replicas_on_two_threads_give_the_single_thread_bits():
    model = _model("resnet10")
    sizes = (16, 1, 7, 16, 2, 16) * 4
    batches = [_batch("resnet10", n, seed=i) for i, n in enumerate(sizes)]
    want = [model.backbone_activations(x) for x in batches]

    def run(engine):
        return [engine.backbone_activations(x) for x in batches]

    replicas = [_cold(model), _cold(model)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run, engine) for engine in replicas]
        results = [f.result(timeout=120) for f in futures]
    for got in results:
        for g, w in zip(got, want):
            assert_same_arrays(g, w)


def test_one_engine_shared_by_two_threads_with_per_call_contexts():
    """The documented alternative to replicas: one engine, a ctx per call.

    The arena is per calling thread, so two threads inside the same plan
    never gather into one buffer.
    """
    model = _model("resnet10")
    engine = _cold(model)
    sizes = (16, 1, 7, 16, 2, 16) * 4
    batches = [_batch("resnet10", n, seed=i) for i, n in enumerate(sizes)]

    def run(worker):
        results = []
        for i, x in enumerate(batches):
            ctx = ForwardContext(spawn_key=100 * worker + i)
            results.append(engine.predict_mc(x, 4, ctx=ctx).sample_probs)
        return results, engine._plan.arena

    want = [run(0)[0], run(1)[0]]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run, worker) for worker in (0, 1)]
        got = [f.result(timeout=120) for f in futures]
    for (probs, _), expected in zip(got, want):
        assert_same_arrays(probs, expected)
    arenas = {id(arena) for _, arena in got} | {id(engine._plan.arena)}
    assert len(arenas) == 3, "every thread gathers into its own arena"


def test_convolutions_of_equal_padded_geometry_share_one_arena():
    """6x6 at p=1 and 4x4 at p=2 both pad to 8x8x2 channels-last: the fourth
    convolution's zero border must not be the second one's interior."""
    net = Network(
        [
            Conv2D(2, 3, padding=0),
            Conv2D(2, 3, padding=1),
            Conv2D(2, 3, padding=0),
            Conv2D(2, 5, padding=2),
        ]
    ).build((2, 8, 8), seed=0)
    plan = PrefixPlan(net)
    for seed in range(2):  # the second call finds both images already dirty
        x = np.random.default_rng(seed).normal(size=(3, 2, 8, 8))
        assert_same_arrays(
            [plan.forward_range(x, 0, 4, ForwardContext())],
            [net.forward_range(x, 0, 4, training=False)],
        )
    # the two paddings that reach 8x8x2 get one image each; the unpadded
    # convolutions read their input (NCHW, then the NCHW view of the NHWC
    # memory a step returns) in place
    assert sorted(key[:3] for key in plan.arena._bordered) == [
        (True, (8, 8, 2), 1),
        (True, (8, 8, 2), 2),
    ]


# --------------------------------------------------------------------------- #
# the numbered rules of the plan's docstring
# --------------------------------------------------------------------------- #
def test_rule1_single_example_columns_keep_the_column_major_view():
    arena = ColumnArena()
    x = np.random.default_rng(0).normal(size=(1, 3, 6, 5))
    for stride, padding in ((1, 1), (2, 0)):
        cols = im2col(x, 3, 3, stride, padding, arena=arena)
        m = cols.shape[0]
        assert cols.shape[1] == 27
        assert cols.strides == (8, m * 8)
    batch = im2col(np.concatenate([x, x]), 3, 3, 1, 1, arena=arena)
    assert batch.flags.c_contiguous


def _conv_relu_net() -> Network:
    return Network([Conv2D(4, 3, padding=1), ReLU()]).build((2, 5, 5), seed=0)


def test_rule2_relu_keeps_the_sign_of_zero():
    net = _conv_relu_net()
    x = np.random.default_rng(0).normal(size=(3, 2, 5, 5))
    want = net.forward(x, training=False)
    got = PrefixPlan(net).forward_range(x, 0, 2, ForwardContext())
    assert_same_arrays([got], [want])
    negative_zero = (got == 0) & np.signbit(got)
    assert negative_zero.any(), "the fixture must drive some outputs negative"
    # ... which is exactly where maximum() would have answered +0.0
    pre = net.forward_range(x, 0, 1, training=False)
    assert not np.signbit(np.maximum(pre, 0)[negative_zero]).any()


def test_rule3_batchnorm_keeps_four_roundings():
    net = Network([Conv2D(6, 3, padding=1, use_bias=False), BatchNorm()])
    net.build((3, 6, 6), seed=0)
    _randomise_batchnorm(net)
    x = np.random.default_rng(1).normal(size=(5, 3, 6, 6))
    want = net.forward(x, training=False)
    got = PrefixPlan(net).forward_range(x, 0, 2, ForwardContext())
    assert_same_arrays([got], [want])
    # the two-pass scale/shift form is a different function of the inputs
    bn = net.layers[1]
    scale = bn.gamma.value / np.sqrt(bn.running_var + bn.epsilon)
    shift = bn.beta.value - bn.running_mean * scale
    pre = net.forward_range(x, 0, 1, training=False)
    folded = pre * scale[None, :, None, None] + shift[None, :, None, None]
    np.testing.assert_allclose(folded, want, rtol=1e-12, atol=1e-12)
    assert folded.tobytes() != want.tobytes()


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_rule4_returned_activations_are_fresh_arrays(arch):
    model = _model(arch)
    engine = _cold(model)
    plan = engine._plan
    x1, x2 = _batch(arch, 5, seed=1), _batch(arch, 5, seed=2)
    first = engine.backbone_activations(x1)
    snapshot = [a.tobytes() for a in first]
    second = engine.backbone_activations(x2)
    scratch = [plan.arena._columns, *plan.arena._bordered.values()]
    for act in first + second:
        assert act.flags.writeable and act.base is not None  # NCHW view of NHWC
        for other in [x1, x2, *scratch]:
            assert not np.shares_memory(act, other)
    for a in first:
        for b in second:
            assert not np.shares_memory(a, b)
    # a later batch (same arena) must not have reached back into the first
    assert [a.tobytes() for a in first] == snapshot
    # ... and a consumer scribbling on a result must not reach the next call
    for act in second:
        act[...] = np.nan
    assert_same_arrays(engine.backbone_activations(x1), model.backbone_activations(x1))


def test_rule4_identity_shortcut_from_another_memory_order():
    """A block fed a C-contiguous input (not a conv output) stays faithful."""
    net = Network([ResidualBlock(3, stride=1)]).build((3, 6, 6), seed=0)
    _randomise_batchnorm(net)
    assert net.layers[0].shortcut_conv is None
    x = np.random.default_rng(0).normal(size=(4, 3, 6, 6))
    got = PrefixPlan(net).forward_range(x, 0, 1, ForwardContext())
    assert_same_arrays([got], [net.forward(x, training=False)])
    assert not np.shares_memory(got, x)


def test_rule6_float32_input_takes_the_same_kernels_and_leaves_no_trace():
    model = _model("resnet10")
    engine = _cold(model)
    x64 = _batch("resnet10", 6)
    x32 = x64.astype(np.float32)
    want64 = model.backbone_activations(x64)
    want32 = model.backbone_activations(x32)
    assert_same_arrays(engine.backbone_activations(x32), want32)
    # the arena just held float32 columns; a float64 batch must not see them
    assert_same_arrays(engine.backbone_activations(x64), want64)
    assert_same_arrays(engine.backbone_activations(x32), want32)
    assert_same_arrays(engine.backbone_activations(x64), want64)


def test_unplanned_layers_run_their_own_forward():
    """Flatten and dense have no step; a lone BatchNorm/ReLU neither (the
    pool between the two convolutions is planned)."""
    net = Network(
        [
            BatchNorm(),
            ReLU(),
            Conv2D(4, 3, padding=0),
            MaxPool2D(2),
            Conv2D(5, 1, padding=0),
            BatchNorm(),
            Flatten(),
            Dense(7),
            ReLU(),
        ]
    ).build((2, 8, 8), seed=0)
    _randomise_batchnorm(net)
    plan = PrefixPlan(net)
    for n in (1, 3):
        x = np.random.default_rng(n).normal(size=(n, 2, 8, 8))
        for start, stop in ((0, 9), (2, 6), (3, 4), (4, 4)):
            inp = net.forward_range(x, 0, start, training=False)
            got = plan.forward_range(inp, start, stop, ForwardContext())
            want = net.forward_range(inp, start, stop, training=False)
            assert_same_arrays([got], [want])
    with pytest.raises(IndexError):
        plan.forward_range(x, 3, 99, ForwardContext())


def test_planned_steps_save_nothing_into_the_context():
    model = _model("resnet10")
    ctx = ForwardContext()
    _cold(model).backbone_activations(_batch("resnet10", 3), ctx=ctx)
    assert len(ctx._saved) == 0


# --------------------------------------------------------------------------- #
# rule 7: max-pooling as a running maximum
# --------------------------------------------------------------------------- #
def _pool_net(shape, pool_size: int) -> Network:
    return Network([MaxPool2D(pool_size)]).build(shape, seed=0)


def _assert_pool_step_is_the_layer(net: Network, x: np.ndarray) -> np.ndarray:
    """The plan's pool step against the column oracle: the oracle's bits
    where its ``max`` scans, its values elsewhere, its strides everywhere."""
    plan, ctx, layer_ctx = PrefixPlan(net), ForwardContext(), ForwardContext()
    with column_path():
        want = net.layers[0].forward(x, training=False, ctx=layer_ctx)
    got = plan.forward_range(x, 0, 1, ctx)
    if bit_exact(net.layers[0], x.dtype):
        assert_same_arrays([got], [want])
    else:
        assert stepped_strides(got) == stepped_strides(want)
        np.testing.assert_array_equal(got, want)
    assert len(ctx._saved) == 0 and len(layer_ctx._saved) == 1
    assert not np.shares_memory(got, x) and got.flags.writeable
    assert arena_bytes(plan.arena) == 0, "the pool step gathers nothing"
    return got


def _zero_ties(shape, pool_size: int) -> list[np.ndarray]:
    """Zeros of one sign with the other sign at one window position — every
    position, both polarities — then random signs among negative values."""
    crafted = []
    for i, j in itertools.product(range(pool_size), repeat=2):
        for odd_one in (0.0, -0.0):
            x = np.full(shape, -odd_one)
            x[:, :, i::pool_size, j::pool_size] = odd_one
            crafted.append(x)
    rng = np.random.default_rng(0)
    for _ in range(4):
        zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        crafted.append(np.where(rng.random(shape) < 0.3, -rng.random(shape), zeros))
    return crafted


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("conv_layout", [False, True])
@pytest.mark.parametrize("pool_size", [2, 3, 1, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_rule7_max_pool_step_has_the_layers_bits_and_layout(
    n, pool_size, conv_layout, dtype
):
    shape = (n, 3, 9, 8)  # pools 2-4 crop a row or a column
    net = _pool_net(shape[1:], pool_size)
    inputs = [np.random.default_rng(n).normal(size=shape)]
    inputs += _zero_ties(shape, pool_size)
    signs = set()
    for x in inputs:
        x = x.astype(dtype)
        got = _assert_pool_step_is_the_layer(
            net, conv_output_layout(x) if conv_layout else x
        )
        signs.update(np.signbit(got[got == 0]).tolist())
        # the layout rule itself: N == 1 is NCHW-contiguous, N > 1 NHWC memory
        assert got.flags.c_contiguous == (n == 1)
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous == (n > 1)
    assert signs == {True, False}, "the crafted ties must resolve both ways"


@pytest.mark.parametrize("pool_size", [1, 2, 3, 4])
def test_rule7_pool_step_is_the_layers_forward_on_every_tie(pool_size):
    """The plan's step and ``MaxPool2D.forward`` are one fold: the same bytes
    and strides on every crafted tie, whatever NumPy's ``max`` would do with
    the window, with nothing patched."""
    shape = (4, 3, 9, 8)
    net = _pool_net(shape[1:], pool_size)
    for x, dtype, n in itertools.product(
        _zero_ties(shape, pool_size), (np.float64, np.float32), (1, 4)
    ):
        x = x[:n].astype(dtype)
        for image in (x, conv_output_layout(x)):
            want = net.layers[0].forward(image, training=True, ctx=ForwardContext())
            got = PrefixPlan(net).forward_range(image, 0, 1, ForwardContext())
            assert_same_arrays([got], [want])


def test_rule7_pool_step_records_no_index(monkeypatch):
    """The plan runs the layer's fold without the training forward's index:
    no compare work, nothing saved (the demo LeNet's two pools)."""
    indices = []
    fold = MaxPool2D.running_max

    def spy(self, x, index=None):
        indices.append(index)
        return fold(self, x, index)

    monkeypatch.setattr(MaxPool2D, "running_max", spy)
    ctx = ForwardContext()
    _cold(_model("lenet")).backbone_activations(_batch("lenet", 32), ctx=ctx)
    assert indices == [None, None] and len(ctx._saved) == 0


def test_rule7_single_example_single_window_output():
    """N == 1 with a 1x1 output (the demo LeNet's second pool): the column
    matrix is one row, so the layer reduces it contiguously like N > 1."""
    net = _pool_net((8, 2, 2), 2)
    for x in _zero_ties((1, 8, 2, 2), 2):
        _assert_pool_step_is_the_layer(net, x)
        _assert_pool_step_is_the_layer(net, conv_output_layout(x))


def test_rule7_nan_stays_nan():
    """Both forms propagate NaN; which NaN's sign and payload survives is the
    kernel's choice (the contiguous reduce returns the canonical one) and is
    outside the contract."""
    x = np.random.default_rng(0).normal(size=(3, 2, 6, 6))
    x[:, :, ::3, ::2] = np.nan
    net = _pool_net(x.shape[1:], 2)
    got = PrefixPlan(net).forward_range(x, 0, 1, ForwardContext())
    with column_path():
        np.testing.assert_array_equal(got, net.forward(x, training=False))
    assert np.isnan(got).any() and not np.isnan(got).all()


_PALETTE = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 5e-324, -5e-324])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    c=st.integers(1, 9),
    pool_size=st.integers(1, 4),
    extra_h=st.integers(0, 5),
    extra_w=st.integers(0, 5),
    conv_layout=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_max_pool_step_matches_the_layer_on_any_geometry(
    n, c, pool_size, extra_h, extra_w, conv_layout, dtype, seed
):
    shape = (n, c, pool_size + extra_h, pool_size + extra_w)
    rng = np.random.default_rng(seed)
    special = rng.random(shape) < 0.5
    x = np.where(special, rng.choice(_PALETTE, shape), rng.normal(size=shape))
    x = x.astype(dtype)
    net = _pool_net(shape[1:], pool_size)
    _assert_pool_step_is_the_layer(net, conv_output_layout(x) if conv_layout else x)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_demo_lenet_predict_mc_matches_the_looped_oracle(seed):
    for n in (1, 32):
        planned, looped = _model("lenet", seed), _model("lenet", seed)
        x = _batch("lenet", n, seed=seed)
        got = planned.engine.predict_mc(x, 5)
        with column_path():
            want = looped_predict_mc(looped, x, 5)
        assert_same_arrays([got.sample_probs], [want.sample_probs])
