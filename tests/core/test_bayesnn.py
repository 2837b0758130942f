"""Tests for the MultiExitBayesNet model."""

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet
from repro.core.flops import network_flops
from repro.nn.architectures import BackboneSpec, resnet_spec
from repro.nn.context import ForwardContext
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MCDropout,
    ReLU,
)
from repro.nn.layers.base import Layer

from ..conftest import small_lenet_spec, small_resnet_spec, small_vgg_spec


def _batchnorm_first_spec() -> BackboneSpec:
    """A backbone whose layer 0 has parameters but no ``backward_params`` of
    its own, so the base version (``backward``, result dropped) runs."""
    return BackboneSpec(
        name="bn_first",
        backbone_factory=lambda: [
            BatchNorm(name="bn0"),
            Conv2D(4, 3, padding=1, name="conv1"),
            ReLU(name="relu1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(6, 3, padding=1, name="conv2"),
            ReLU(name="relu2"),
            MaxPool2D(2, name="pool2"),
        ],
        exit_points=[4, 7],
        input_shape=(2, 8, 8),
        num_classes=3,
        final_head_factory=lambda: [Flatten(), Dense(3, name="classifier")],
    )


_BACKWARD_EXITS_ARCHS = {
    "demo_lenet": (small_lenet_spec, (1, 12, 12), 2),
    "conv_mc_resnet": (
        lambda: resnet_spec("resnet10", (3, 16, 16), width_multiplier=0.125),
        (3, 16, 16),
        4,
    ),
    "batchnorm_first": (_batchnorm_first_spec, (2, 8, 8), 2),
}


def _full_chain_backward(model, grads, ctx) -> np.ndarray:
    """Every exit's gradient through ``backbone.backward_range`` down to layer
    0, input gradient included; returns that input gradient."""
    bounds = model._segment_bounds()
    grad_back = None
    for i in reversed(range(model.num_exits)):
        head = model.exits[i]
        total = head.backward_range(grads[i], 0, len(head.layers), ctx=ctx)
        if grad_back is not None:
            total = total + grad_back
        grad_back = model.backbone.backward_range(total, *bounds[i], ctx=ctx)
    return grad_back


class TestConfigValidation:
    def test_defaults_are_bayesian(self):
        assert MultiExitConfig().is_bayesian

    def test_zero_mcd_not_bayesian(self):
        assert not MultiExitConfig(mcd_layers_per_exit=0).is_bayesian

    def test_zero_rate_not_bayesian(self):
        assert not MultiExitConfig(dropout_rate=0.0).is_bayesian

    def test_invalid_exits(self):
        with pytest.raises(ValueError):
            MultiExitConfig(num_exits=0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            MultiExitConfig(dropout_rate=1.0)

    def test_too_many_exits_for_architecture(self):
        with pytest.raises(ValueError):
            MultiExitBayesNet(small_lenet_spec(), MultiExitConfig(num_exits=5))


class TestStructure:
    def test_exit_count(self, multi_exit_model):
        assert multi_exit_model.num_exits == 2

    def test_exit_points_are_suffix_of_spec(self):
        spec = small_vgg_spec()
        model = MultiExitBayesNet(spec, MultiExitConfig(num_exits=1))
        assert model.exit_points == [spec.exit_points[-1]]

    def test_final_exit_uses_original_head(self, multi_exit_model):
        final_head = multi_exit_model.exits[-1]
        assert any("classifier" in layer.name for layer in final_head.layers)

    def test_mcd_layers_present_in_every_exit(self, multi_exit_model):
        for head in multi_exit_model.exits:
            assert any(isinstance(layer, MCDropout) for layer in head.layers)

    def test_non_bayesian_has_no_mcd(self):
        model = MultiExitBayesNet(
            small_lenet_spec(), MultiExitConfig(num_exits=2, mcd_layers_per_exit=0)
        )
        for head in model.exits:
            assert not any(isinstance(layer, MCDropout) for layer in head.layers)

    def test_parameters_include_backbone_and_exits(self, multi_exit_model):
        n_backbone = sum(p.size for p in multi_exit_model.backbone.parameters())
        assert multi_exit_model.num_parameters > n_backbone


class TestForwardBackward:
    def test_forward_exits_shapes(self, multi_exit_model, rng):
        x = rng.normal(size=(3, 1, 12, 12))
        logits = multi_exit_model.forward_exits(x, training=True)
        assert len(logits) == 2
        assert all(lg.shape == (3, 5) for lg in logits)

    @pytest.mark.parametrize("arch", sorted(_BACKWARD_EXITS_ARCHS))
    def test_backward_exits_gives_the_full_chains_parameter_gradients(self, arch):
        """Every ``.grad`` bit-identical to a full ``backward_range(…, 0, stop)``
        chain on a twin model, with no input gradient returned."""
        spec_fn, shape, exits = _BACKWARD_EXITS_ARCHS[arch]
        config = MultiExitConfig(num_exits=exits, mcd_layers_per_exit=1, seed=0)
        model, twin = (MultiExitBayesNet(spec_fn(), config) for _ in range(2))
        layer0 = model.backbone.layers[0]
        relies_on_base = type(layer0).backward_params is Layer.backward_params
        assert relies_on_base == (arch == "batchnorm_first")

        rng = np.random.default_rng(1)
        x = rng.normal(size=(5,) + shape)
        for step in range(2):  # the second step accumulates onto the first
            ctx, twin_ctx = ForwardContext(), ForwardContext()
            logits = model.forward_exits(x, training=True, ctx=ctx)
            twin_logits = twin.forward_exits(x, training=True, ctx=twin_ctx)
            grads = [rng.normal(size=lg.shape) for lg in logits]
            assert model.backward_exits(grads, ctx=ctx) is None
            grad_in = _full_chain_backward(twin, grads, twin_ctx)
            assert grad_in.shape == x.shape
            assert all(a.tobytes() == b.tobytes() for a, b in zip(logits, twin_logits))
            for p, q in zip(model.parameters(), twin.parameters(), strict=True):
                assert p.name == q.name
                assert p.grad.tobytes() == q.grad.tobytes(), (step, p.name)
        assert np.any(next(layer0.parameters()).grad != 0)

    def test_backward_wrong_count_rejected(self, multi_exit_model, rng):
        x = rng.normal(size=(2, 1, 12, 12))
        logits = multi_exit_model.forward_exits(x, training=True)
        with pytest.raises(ValueError):
            multi_exit_model.backward_exits([np.ones_like(logits[0])])

    def test_gradients_accumulate_in_shared_backbone(self, multi_exit_model, rng):
        x = rng.normal(size=(2, 1, 12, 12))
        for param in multi_exit_model.parameters():
            param.zero_grad()
        logits = multi_exit_model.forward_exits(x, training=True)
        multi_exit_model.backward_exits([np.ones_like(lg) for lg in logits])
        first_conv = multi_exit_model.backbone.layers[0]
        assert np.any(next(first_conv.parameters()).grad != 0)

    def test_training_gradient_matches_numeric_on_shared_weight(self, rng):
        """Numerically check the multi-exit backward pass through the backbone."""
        model = MultiExitBayesNet(
            small_lenet_spec(),
            MultiExitConfig(
                num_exits=2, mcd_layers_per_exit=0, dropout_rate=0.0, seed=0
            ),
        )
        x = rng.normal(size=(2, 1, 12, 12))
        proj = [rng.normal(size=(2, 5)) for _ in range(2)]

        def objective() -> float:
            logits = model.forward_exits(x, training=False)
            return float(sum(np.sum(p * lg) for p, lg in zip(proj, logits)))

        for param in model.parameters():
            param.zero_grad()
        logits = model.forward_exits(x, training=False)
        model.backward_exits(proj)
        param = next(model.backbone.layers[0].parameters())
        analytic = param.grad.flat[0]

        eps = 1e-5
        original = param.value.flat[0]
        param.value.flat[0] = original + eps
        plus = objective()
        param.value.flat[0] = original - eps
        minus = objective()
        param.value.flat[0] = original
        numeric = (plus - minus) / (2 * eps)
        assert abs(analytic - numeric) < 1e-4


class TestInference:
    def test_predict_mc_shapes(self, multi_exit_model, rng):
        x = rng.normal(size=(4, 1, 12, 12))
        pred = multi_exit_model.predict_mc(x, num_samples=5)
        assert pred.sample_probs.shape == (5, 4, 5)
        np.testing.assert_allclose(pred.mean_probs.sum(axis=1), 1.0)

    def test_mc_samples_differ(self, multi_exit_model, rng):
        x = rng.normal(size=(3, 1, 12, 12))
        pred = multi_exit_model.predict_mc(x, num_samples=4)
        assert not np.allclose(pred.sample_probs[0], pred.sample_probs[1])

    def test_deterministic_prediction_reproducible(self, multi_exit_model, rng):
        x = rng.normal(size=(3, 1, 12, 12))
        a = multi_exit_model.exit_probabilities(x, stochastic=False)
        b = multi_exit_model.exit_probabilities(x, stochastic=False)
        np.testing.assert_allclose(a, b)

    def test_predict_proba_bayesian_uses_mc(self, multi_exit_model, rng):
        x = rng.normal(size=(2, 1, 12, 12))
        probs = multi_exit_model.predict_proba(x, num_samples=3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_exit_probabilities_count(self, multi_exit_model, rng):
        probs = multi_exit_model.exit_probabilities(rng.normal(size=(2, 1, 12, 12)))
        assert len(probs) == 2

    def test_early_exit_predict(self, multi_exit_model, rng):
        result = multi_exit_model.early_exit_predict(
            rng.normal(size=(4, 1, 12, 12)), threshold=0.5
        )
        assert result.probs.shape == (4, 5)

    def test_invalid_mc_samples(self, multi_exit_model, rng):
        with pytest.raises(ValueError):
            multi_exit_model.predict_mc(rng.normal(size=(1, 1, 12, 12)), num_samples=0)


class TestFlops:
    def test_breakdown_consistency(self, multi_exit_model):
        fb = multi_exit_model.flop_breakdown()
        assert fb.backbone_flops == network_flops(multi_exit_model.backbone)
        assert len(fb.exit_flops) == 2

    def test_sampling_flops_less_than_naive(self, multi_exit_model):
        fb = multi_exit_model.flop_breakdown()
        naive = 4 * fb.single_pass_flops()
        assert multi_exit_model.sampling_flops(4) < naive

    def test_cumulative_exit_flops_increasing(self, multi_exit_model):
        costs = multi_exit_model.cumulative_exit_flops()
        assert costs == sorted(costs)
        assert len(costs) == 2

    def test_multi_exit_cheaper_than_single_exit_for_same_samples(self):
        single = MultiExitBayesNet(
            small_lenet_spec(), MultiExitConfig(num_exits=1, seed=0)
        )
        multi = MultiExitBayesNet(
            small_lenet_spec(), MultiExitConfig(num_exits=2, seed=0)
        )
        assert multi.sampling_flops(8) < single.sampling_flops(8) * 1.05


class TestSingleExitBayesNet:
    def test_mcd_count(self):
        net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=3)
        assert sum(isinstance(layer, MCDropout) for layer in net.layers) == 3

    def test_prediction_shape(self, rng):
        net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=1)
        assert net.predict(rng.normal(size=(2, 1, 12, 12))).shape == (2, 5)

    def test_zero_mcd_is_deterministic(self, rng):
        net = single_exit_bayesnet(small_lenet_spec(), num_mcd_layers=0)
        x = rng.normal(size=(2, 1, 12, 12))
        np.testing.assert_allclose(net.predict(x), net.predict(x))

    def test_works_for_resnet_and_vgg(self, rng):
        for spec_fn, shape in (
            (small_resnet_spec, (2, 3, 8, 8)),
            (small_vgg_spec, (2, 3, 8, 8)),
        ):
            net = single_exit_bayesnet(spec_fn(), num_mcd_layers=2)
            assert net.predict(rng.normal(size=shape)).shape == (2, 4)
