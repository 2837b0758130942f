"""ForwardContext: stateless layers, context-owned RNG, the spawn rule.

The reentrancy refactor moved all per-call layer state (backward caches,
dropout masks, RNG streams) into an explicit :class:`ForwardContext`.
These tests pin its contract:

* ctx-less calls resolve to the process-wide default context and behave
  exactly like the historical stateful layers (bit-identical masks);
* two contexts over the *same* layer objects are fully isolated — caches
  don't cross, streams are independent, an interleaved forward/backward
  pair in context A is untouched by work in context B;
* the ``spawn_key`` rule: ``spawn_key=None`` reproduces the historical
  ``default_rng(layer.seed)`` stream; ``spawn_key=k`` gives a deterministic
  stream family independent across keys;
* ``reseed`` stays model-wide: every context re-derives its stream from
  the new seed on the next draw.
"""

import numpy as np
import pytest

from repro.nn import ForwardContext, resolve_context
from repro.nn.context import _DEFAULT_CONTEXT
from repro.nn.layers import Dense, Flatten, MCDropout, ReLU
from repro.nn.model import Network

from ..inference.folded_harness import reseed


def _mcd(seed=0, rate=0.5):
    layer = MCDropout(rate, seed=seed)
    layer.build((64,), np.random.default_rng(0))
    return layer


class TestContextResolution:
    def test_none_resolves_to_process_default(self):
        assert resolve_context(None) is _DEFAULT_CONTEXT

    def test_explicit_context_passes_through(self):
        ctx = ForwardContext()
        assert resolve_context(ctx) is ctx

    def test_negative_spawn_key_rejected(self):
        with pytest.raises(ValueError):
            ForwardContext(spawn_key=-1)


class TestBackwardCacheIsolation:
    def test_backward_reads_cache_of_its_own_context(self):
        layer = ReLU()
        layer.build((4,), np.random.default_rng(0))
        ctx_a, ctx_b = ForwardContext(), ForwardContext()
        x_a = np.array([[1.0, -1.0, 2.0, -2.0]])
        x_b = np.array([[-1.0, 1.0, -2.0, 2.0]])  # opposite mask

        layer.forward(x_a, ctx=ctx_a)
        layer.forward(x_b, ctx=ctx_b)  # would clobber self._mask pre-refactor

        grad = np.ones((1, 4))
        np.testing.assert_array_equal(
            layer.backward(grad, ctx=ctx_a), [[1.0, 0.0, 1.0, 0.0]]
        )
        np.testing.assert_array_equal(
            layer.backward(grad, ctx=ctx_b), [[0.0, 1.0, 0.0, 1.0]]
        )

    def test_backward_without_forward_in_context_fails_clearly(self):
        layer = Flatten()
        layer.build((2, 2), np.random.default_rng(0))
        layer.forward(np.ones((1, 2, 2)))  # default context only
        with pytest.raises(RuntimeError, match="no forward cache"):
            layer.backward(np.ones((1, 4)), ctx=ForwardContext())

    def test_network_forward_backward_pairs_through_one_context(self):
        net = Network([Flatten(), Dense(3)]).build((2, 2), seed=0)
        ctx = ForwardContext()
        x = np.random.default_rng(1).normal(size=(5, 2, 2))
        out = net.forward(x, training=True, ctx=ctx)
        grad = net.backward(np.ones_like(out), ctx=ctx)
        assert grad.shape == x.shape


class TestContextOwnedRNG:
    def test_plain_context_matches_historical_stream(self):
        """spawn_key=None seeds exactly like default_rng(layer.seed) did."""
        layer = _mcd(seed=42)
        ctx = ForwardContext()
        x = np.ones((3, 64))
        out = layer.forward(x, ctx=ctx)

        reference = np.random.default_rng(42)
        mask = (reference.random((3, 64)) < 0.5).astype(x.dtype)
        np.testing.assert_array_equal(out, x * (mask / 0.5))

    def test_two_plain_contexts_draw_identical_independent_streams(self):
        layer = _mcd(seed=7)
        ctx_a, ctx_b = ForwardContext(), ForwardContext()
        x = np.ones((2, 64))
        a1, a2 = layer.forward(x, ctx=ctx_a), layer.forward(x, ctx=ctx_a)
        b1, b2 = layer.forward(x, ctx=ctx_b), layer.forward(x, ctx=ctx_b)
        # same seed ⇒ same sequence, each context advancing privately
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)
        assert not np.array_equal(a1, a2)

    def test_spawned_contexts_are_deterministic_per_key(self):
        layer = _mcd(seed=3)
        x = np.ones((2, 64))
        out_k1 = layer.forward(x, ctx=ForwardContext(spawn_key=1))
        out_k1_again = layer.forward(x, ctx=ForwardContext(spawn_key=1))
        out_k2 = layer.forward(x, ctx=ForwardContext(spawn_key=2))
        out_plain = layer.forward(x, ctx=ForwardContext())
        np.testing.assert_array_equal(out_k1, out_k1_again)
        assert not np.array_equal(out_k1, out_k2)
        assert not np.array_equal(out_k1, out_plain)

    def test_reseed_is_visible_to_every_context(self):
        layer = _mcd(seed=0)
        ctx = ForwardContext()
        x = np.ones((2, 64))
        layer.forward(x, ctx=ctx)  # advance the context's stream
        reseed(layer, 99)
        a = layer.forward(x, ctx=ctx)  # re-derived from seed 99
        b = layer.forward(x, ctx=ForwardContext())  # fresh context, same seed
        np.testing.assert_array_equal(a, b)

    def test_reseed_replays_masks_within_one_context(self):
        layer = _mcd()
        ctx = ForwardContext()
        x = np.ones((2, 64))
        reseed(layer, 5)
        first = [layer.forward(x, ctx=ctx) for _ in range(3)]
        reseed(layer, 5)
        second = [layer.forward(x, ctx=ctx) for _ in range(3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_layers_carry_no_per_call_state(self):
        """The reentrancy invariant itself: forward leaves the layer untouched."""
        layers = [_mcd(), ReLU(), Flatten()]
        for layer in layers[1:]:
            layer.build((64,), np.random.default_rng(0))
        x = np.ones((2, 64))
        for layer in layers:
            before = set(vars(layer))
            layer.forward(x.reshape(2, 64), ctx=ForwardContext())
            assert set(vars(layer)) == before, (
                f"{type(layer).__name__}.forward mutated the layer: "
                f"{set(vars(layer)) - before}"
            )


class TestContextMemoryBehaviour:
    def test_dead_layers_do_not_accumulate_in_context(self):
        ctx = ForwardContext()
        for _ in range(5):
            layer = ReLU()
            layer.build((8,), np.random.default_rng(0))
            layer.forward(np.ones((1, 8)), ctx=ctx)
        # weak keys: dropping the layers drops their cache entries
        del layer
        import gc

        gc.collect()
        assert len(ctx._saved) == 0
