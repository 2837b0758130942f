"""Unit tests for the sample-folded inference engines."""

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.core.mcd import MCPrediction
from repro.inference import (
    InferenceEngine,
    NetworkEngine,
    fold_batch,
    folded_forward_range,
    iter_microbatches,
    unfold_samples,
)
from repro.nn.layers import Dense, Flatten, MCDropout, ReLU
from repro.nn.model import Network

from ..conftest import small_lenet_spec
from .reference_loops import eager_early_exit


def _bayes_net(rate=0.5, seed=0):
    net = Network(
        [
            Flatten(),
            Dense(16, name="fc1"),
            ReLU(),
            MCDropout(rate, filter_wise=False, name="mcd", seed=seed),
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


# --------------------------------------------------------------------------- #
# microbatching
# --------------------------------------------------------------------------- #
class TestMicrobatches:
    def test_array_is_sliced(self, rng):
        x = rng.normal(size=(10, 3))
        batches = list(iter_microbatches(x, 4))
        assert [b.shape[0] for b in batches] == [4, 4, 2]
        np.testing.assert_array_equal(np.concatenate(batches), x)

    def test_example_stream_is_stacked(self, rng):
        examples = [rng.normal(size=(3, 4, 4)) for _ in range(5)]
        batches = list(iter_microbatches(iter(examples), 2))
        assert [b.shape for b in batches] == [(2, 3, 4, 4)] * 2 + [(1, 3, 4, 4)]
        np.testing.assert_array_equal(np.concatenate(batches), np.stack(examples))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iter_microbatches(np.zeros((4, 2)), 0))

    def test_negative_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_microbatches(iter([np.zeros(2)]), -1))

    def test_array_batches_are_views(self, rng):
        x = rng.normal(size=(7, 3))
        for batch in iter_microbatches(x, 3):
            assert np.shares_memory(batch, x)

    def test_exact_multiple_and_empty_inputs(self, rng):
        x = rng.normal(size=(8, 2))
        assert [b.shape[0] for b in iter_microbatches(x, 4)] == [4, 4]
        assert [b.shape[0] for b in iter_microbatches(iter(x), 4)] == [4, 4]
        assert list(iter_microbatches(x[:0], 4)) == []
        assert list(iter_microbatches(iter([]), 4)) == []

    def test_source_errors_propagate(self):
        def broken():
            yield np.zeros(2)
            raise RuntimeError("sensor died")

        with pytest.raises(RuntimeError, match="sensor died"):
            list(iter_microbatches(broken(), 8))


# --------------------------------------------------------------------------- #
# NetworkEngine
# --------------------------------------------------------------------------- #
class TestNetworkEngine:
    def test_requires_built_network(self):
        with pytest.raises(ValueError):
            NetworkEngine(Network([Dense(2)]))

    def test_sample_shapes_and_mean(self, rng):
        engine = NetworkEngine(_bayes_net(), seed=0)
        pred = engine.sample(rng.normal(size=(5, 2, 4, 4)), num_samples=7)
        assert isinstance(pred, MCPrediction)
        assert pred.sample_probs.shape == (7, 5, 3)
        np.testing.assert_allclose(pred.sample_probs.mean(axis=0), pred.mean_probs)

    def test_deterministic_network_replicates_sample(self, rng):
        net = Network([Flatten(), Dense(3)]).build((2, 4, 4), seed=0)
        engine = NetworkEngine(net)
        assert not engine.has_stochastic_layers
        pred = engine.sample(rng.normal(size=(2, 2, 4, 4)), num_samples=3)
        np.testing.assert_array_equal(pred.sample_probs[0], pred.sample_probs[2])

    def test_invalid_sample_count(self, rng):
        with pytest.raises(ValueError):
            NetworkEngine(_bayes_net()).sample(rng.normal(size=(1, 2, 4, 4)), 0)

    def test_predict_stream_matches_full_batch(self, rng):
        net = Network([Flatten(), Dense(3)]).build((2, 4, 4), seed=0)
        engine = NetworkEngine(net)
        x = rng.normal(size=(10, 2, 4, 4))
        streamed = np.concatenate(list(engine.predict_stream(x, batch_size=3)))
        np.testing.assert_allclose(streamed, engine.predict_proba(x), atol=1e-12)

    def test_predict_stream_example_stream_matches_array(self, rng):
        x = rng.normal(size=(5, 2, 4, 4))
        from_array = NetworkEngine(_bayes_net(), seed=0).predict_stream(
            x, batch_size=2, num_samples=3
        )
        from_rows = NetworkEngine(_bayes_net(), seed=0).predict_stream(
            (row for row in x), batch_size=2, num_samples=3
        )
        for a, b in zip(from_array, from_rows, strict=True):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)


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

    def test_predict_stream_matches_predict_proba(self, rng):
        model = _multi_exit(mcd_layers=0, rate=0.0)  # deterministic for equality
        x = rng.normal(size=(9, 1, 12, 12))
        streamed = np.concatenate(list(model.predict_stream(x, batch_size=4)))
        np.testing.assert_allclose(streamed, model.predict_proba(x), atol=1e-12)

    def test_predict_stream_early_exit_mode(self, rng):
        model = _multi_exit(mcd_layers=0, rate=0.0)
        x = rng.normal(size=(6, 1, 12, 12))
        streamed = np.concatenate(
            list(model.predict_stream(x, batch_size=3, early_exit_threshold=0.5))
        )
        assert streamed.shape == (6, 5)
        np.testing.assert_allclose(streamed.sum(axis=1), 1.0)

    def test_predict_stream_early_exit_matches_early_exit_predict(self, rng):
        model = _multi_exit(mcd_layers=0, rate=0.0)
        x = rng.normal(size=(6, 1, 12, 12))
        batches = list(model.predict_stream(x, batch_size=3, early_exit_threshold=0.5))
        assert [b.shape for b in batches] == [(3, 5), (3, 5)]
        for start, batch in zip((0, 3), batches):
            want = model.engine.early_exit_predict(x[start : start + 3], 0.5).probs
            np.testing.assert_array_equal(batch, want)


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
