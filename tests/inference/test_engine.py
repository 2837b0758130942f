"""Unit tests for the sample-folded inference engine and its primitives."""

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.core.mcd import MCPrediction
from repro.inference import (
    InferenceEngine,
    folded_forward_range,
    sample_suffix,
    unfold_samples,
)
from repro.nn.context import ForwardContext
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MCDropout, ReLU
from repro.nn.layers.activations import softmax
from repro.nn.model import Network

from ..conftest import small_lenet_spec
from .folded_harness import fold_batch, folded_mc_sample, reseed_mcd
from .reference_loops import eager_early_exit


def _bayes_net(rate=0.5, seed=0):
    net = Network(
        [
            Flatten(),
            Dense(16, name="fc1"),
            ReLU(),
            MCDropout(rate, name="mcd", seed=seed),
            Dense(3, name="out"),
        ]
    )
    return net.build((2, 4, 4), seed=0)


def _multi_exit(mcd_layers=1, rate=0.25, num_exits=2):
    return MultiExitBayesNet(
        small_lenet_spec(),
        MultiExitConfig(
            num_exits=num_exits,
            mcd_layers_per_exit=mcd_layers,
            dropout_rate=rate,
            default_mc_samples=4,
            seed=0,
        ),
    )


# --------------------------------------------------------------------------- #
# folding primitives
# --------------------------------------------------------------------------- #
class TestFolding:
    def test_fold_unfold_roundtrip(self, rng):
        x = rng.normal(size=(5, 3, 4, 4))
        folded = fold_batch(x, 4)
        assert folded.shape == (20, 3, 4, 4)
        tiles = unfold_samples(folded, 4)
        for s in range(4):
            np.testing.assert_array_equal(tiles[s], x)

    def test_fold_invalid_samples(self, rng):
        with pytest.raises(ValueError):
            fold_batch(rng.normal(size=(2, 3)), 0)
        with pytest.raises(ValueError):
            unfold_samples(rng.normal(size=(6, 3)), 4)

    def test_folded_forward_range_validates(self, rng):
        net = _bayes_net()
        x = rng.normal(size=(8, 16))
        with pytest.raises(IndexError):
            folded_forward_range(net, x, 2, 3, 99)
        with pytest.raises(ValueError):
            folded_forward_range(net, rng.normal(size=(7, 16)), 2, 3, 5)
        with pytest.raises(RuntimeError):
            folded_forward_range(Network([Dense(2)]), x, 2, 0, 1)

    def test_folded_forward_range_runs_any_other_layer_per_slice(self, rng):
        """A layer kind the fold has no case for runs once per sample slice."""

        class Doubling(Layer):
            def forward(self, x, training=False, ctx=None):
                return 2.0 * x

        net = Network([Dense(4), Doubling()]).build((3,), seed=0)
        x = fold_batch(rng.normal(size=(2, 3)), 2)
        dense = net.layers[0].forward_folded(x, 2)
        np.testing.assert_array_equal(folded_forward_range(net, x, 2, 0, 1), dense)
        sliced = np.concatenate(
            [net.layers[1].forward(part) for part in unfold_samples(dense, 2)]
        )
        np.testing.assert_array_equal(folded_forward_range(net, x, 2, 0, 2), sliced)

    @pytest.mark.parametrize("head", ["dense", "conv"])
    def test_sample_suffix_is_s_sequential_suffix_passes(self, rng, head):
        if head == "dense":
            net, shape = _bayes_net(), (2, 4, 4)
        else:
            layers = [
                Conv2D(3, name="c1"),
                ReLU(),
                MCDropout(0.5, name="mcd", seed=4),
                Conv2D(2, name="c2"),
                Flatten(),
                Dense(3, name="out"),
            ]
            net, shape = Network(layers).build((2, 5, 5), seed=0), (2, 5, 5)
        split, end = net.first_stochastic_index(), len(net.layers)
        prefix = net.forward_range(rng.normal(size=(3,) + shape), 0, split)
        # two fresh contexts draw the same per-layer streams
        folded = sample_suffix(net, prefix, split, 4, ForwardContext())
        looped_ctx = ForwardContext()
        looped = np.stack(
            [
                softmax(net.forward_range(prefix, split, end, ctx=looped_ctx))
                for _ in range(4)
            ]
        )
        assert folded.shape == (4, 3, 3)
        np.testing.assert_array_equal(folded, looped)
        assert not np.array_equal(folded[0], folded[1])


# --------------------------------------------------------------------------- #
# folded flat-network sampling (the test harness over PrefixPlan + sample_suffix)
# --------------------------------------------------------------------------- #
class TestNetworkEngine:
    def test_sample_shapes_and_mean(self, rng):
        net = _bayes_net()
        reseed_mcd(net, 0)
        x = rng.normal(size=(5, 2, 4, 4))
        pred = folded_mc_sample(net, x, 7, ForwardContext())
        assert isinstance(pred, MCPrediction)
        assert pred.sample_probs.shape == (7, 5, 3)
        np.testing.assert_allclose(pred.sample_probs.mean(axis=0), pred.mean_probs)

    def test_deterministic_network_replicates_sample(self, rng):
        net = Network([Flatten(), Dense(3)]).build((2, 4, 4), seed=0)
        x = rng.normal(size=(2, 2, 4, 4))
        pred = folded_mc_sample(net, x, 3, ForwardContext())
        np.testing.assert_array_equal(pred.sample_probs[0], pred.sample_probs[2])

    def test_invalid_sample_count(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        with pytest.raises(ValueError):
            folded_mc_sample(_bayes_net(), x, 0, ForwardContext())


# --------------------------------------------------------------------------- #
# InferenceEngine
# --------------------------------------------------------------------------- #
class TestInferenceEngine:
    def test_model_engine_is_cached_singleton(self):
        model = _multi_exit()
        assert model.engine is model.engine
        assert isinstance(model.engine, InferenceEngine)

    def test_predict_mc_shapes(self, rng):
        model = _multi_exit()
        x = rng.normal(size=(5, 1, 12, 12))
        pred = model.predict_mc(x, 7)
        assert pred.sample_probs.shape == (7, 5, 5)
        np.testing.assert_allclose(pred.sample_probs.sum(axis=-1), 1.0)

    def test_predict_mc_without_mcd_round_robins_the_exits(self, rng):
        model = _multi_exit(mcd_layers=0, rate=0.0)
        x = rng.normal(size=(4, 1, 12, 12))
        exits = model.exit_probabilities(x, stochastic=False)
        pred = model.predict_mc(x, 5)  # 3 passes x 2 exits, truncated to 5
        want = np.stack([exits[k % 2] for k in range(5)])
        np.testing.assert_array_equal(pred.sample_probs, want)

    def test_activation_cache_shared_across_methods(self, rng):
        model = _multi_exit()
        engine = model.engine
        x = rng.normal(size=(4, 1, 12, 12))
        engine.predict_mc(x, 4)
        calls = {"n": 0}
        original = model.backbone_activations

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        model.backbone_activations = counting
        engine.predict_mc(x, 4)
        engine.exit_probabilities(x)
        engine.exit_mc_probabilities(x, 2)
        assert calls["n"] == 0  # every method reused the cached segments

    def test_training_invalidates_activation_cache(self, rng):
        model = _multi_exit()
        engine = model.engine
        x = rng.normal(size=(4, 1, 12, 12))
        before = engine.predict_proba(x, 4)
        # a training step changes weights; forward_exits must drop the cache
        logits = model.forward_exits(x, training=True)
        model.backward_exits([np.ones_like(lg) for lg in logits])
        for p in model.parameters():
            p.value -= 0.05 * p.grad
        after = engine.predict_proba(x, 4)
        assert not np.allclose(before, after)

    def test_quantization_invalidates_activation_cache(self, rng):
        """Weights-version tokens: quantize -> predict must not serve stale activations."""
        from repro.quantization import QuantizationConfig, quantize_network

        model = _multi_exit(mcd_layers=0, rate=0.0)  # deterministic: only weights move
        x = rng.normal(size=(4, 1, 12, 12))
        before = model.engine.predict_proba(x)
        quantize_network(model.backbone, QuantizationConfig(weight_bits=2))
        after = model.engine.predict_proba(x)
        assert not np.allclose(before, after)

    def test_set_weights_invalidates_activation_cache(self, rng):
        model = _multi_exit(mcd_layers=0, rate=0.0)
        x = rng.normal(size=(4, 1, 12, 12))
        before = model.engine.predict_proba(x)
        model.backbone.set_weights([w * 1.5 for w in model.backbone.get_weights()])
        after = model.engine.predict_proba(x)
        assert not np.allclose(before, after)

    def test_exit_probabilities_deterministic_mode_stable(self, rng):
        model = _multi_exit()
        x = rng.normal(size=(3, 1, 12, 12))
        a = model.exit_probabilities(x, stochastic=False)
        b = model.exit_probabilities(x, stochastic=False)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)


class TestActiveSetEarlyExit:
    @pytest.mark.parametrize("use_ensemble", [True, False])
    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.9, 0.999])
    def test_matches_eager_path_on_deterministic_model(
        self, rng, threshold, use_ensemble
    ):
        model = _multi_exit(mcd_layers=0, rate=0.0)
        x = rng.normal(size=(12, 1, 12, 12))
        lazy = model.early_exit_predict(x, threshold, use_ensemble=use_ensemble)
        eager = eager_early_exit(model, x, threshold, use_ensemble=use_ensemble)
        np.testing.assert_array_equal(lazy.exit_indices, eager.exit_indices)
        np.testing.assert_allclose(lazy.probs, eager.probs, atol=1e-10)
        np.testing.assert_allclose(lazy.exit_distribution, eager.exit_distribution)

    def test_later_segments_only_see_active_examples(self, rng):
        model = _multi_exit(mcd_layers=0, rate=0.0)
        x = rng.normal(size=(16, 1, 12, 12))
        seen_batches = []
        plan = model.engine._plan
        original = plan.forward_range

        def recording(inp, start, stop, ctx):
            seen_batches.append(inp.shape[0])
            return original(inp, start, stop, ctx)

        plan.forward_range = recording
        result = model.early_exit_predict(x, threshold=0.25, use_ensemble=False)
        plan.forward_range = original
        assert seen_batches[0] == 16
        retired_at_first = int((result.exit_indices == 0).sum())
        if retired_at_first and len(seen_batches) > 1:
            assert seen_batches[1] == 16 - retired_at_first

    def test_invalid_threshold(self, rng):
        model = _multi_exit(mcd_layers=0, rate=0.0)
        with pytest.raises(ValueError):
            model.early_exit_predict(rng.normal(size=(2, 1, 12, 12)), 1.0)

    def test_distribution_sums_to_one(self, rng):
        model = _multi_exit()
        result = model.early_exit_predict(rng.normal(size=(8, 1, 12, 12)), 0.8)
        assert abs(result.exit_distribution.sum() - 1.0) < 1e-12
        assert result.probs.shape == (8, 5)
