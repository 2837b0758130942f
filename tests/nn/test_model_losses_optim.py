"""Tests for the Network container, losses, optimizers, and initializers."""

import numpy as np
import pytest

from repro.nn import SGD, CrossEntropyLoss, DistillationLoss, Network
from repro.nn.initializers import he_normal, zeros
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MCDropout,
    Parameter,
    ReLU,
)
from repro.nn.layers.activations import softmax
from repro.nn.losses import cross_entropy, kl_divergence

from .gradcheck import numerical_gradient


def small_network() -> Network:
    return Network(
        [
            Conv2D(4, 3, padding=1, name="conv"),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(8, name="hidden"),
            ReLU(),
            Dense(3, name="out"),
        ],
        name="small",
    )


class TestNetwork:
    def test_build_and_shapes(self):
        net = small_network().build((1, 8, 8))
        assert net.layers[-1].output_shape == (3,)
        assert net.layers[0].output_shape == (4, 8, 8)

    def test_forward_shape(self, rng):
        net = small_network().build((1, 8, 8))
        assert net.forward(rng.normal(size=(5, 1, 8, 8))).shape == (5, 3)

    def test_forward_range_composition(self, rng):
        net = small_network().build((1, 8, 8))
        x = rng.normal(size=(2, 1, 8, 8))
        mid = net.forward_range(x, 0, 3)
        full_split = net.forward_range(mid, 3, len(net.layers))
        np.testing.assert_allclose(full_split, net.forward(x))

    def test_forward_range_invalid_bounds(self, rng):
        net = small_network().build((1, 8, 8))
        with pytest.raises(IndexError):
            net.forward_range(rng.normal(size=(1, 1, 8, 8)), 3, 2)

    def test_unbuilt_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            small_network().forward(rng.normal(size=(1, 1, 8, 8)))

    def test_duplicate_names_made_unique(self):
        net = Network([ReLU(name="act"), ReLU(name="act")]).build((4,))
        assert net.layers[0].name != net.layers[1].name

    def test_stochastic_index(self):
        net = Network(
            [Dense(4, name="d1"), ReLU(), MCDropout(0.5), Dense(2, name="d2")]
        ).build((6,))
        assert net.stochastic_layer_indices() == [2]
        assert net.first_stochastic_index() == 2

    def test_first_stochastic_index_without_mcd(self):
        net = small_network().build((1, 8, 8))
        assert net.first_stochastic_index() == len(net.layers)

    def test_backward_shapes(self, rng):
        net = small_network().build((1, 8, 8))
        x = rng.normal(size=(2, 1, 8, 8))
        out = net.forward(x, training=True)
        grad = net.backward_range(np.ones_like(out), 0, len(net.layers))
        assert grad.shape == x.shape


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 1, 2, 3])
        assert abs(cross_entropy(logits, labels) - np.log(10)) < 1e-9

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert cross_entropy(logits, np.array([0, 1])) < 1e-6

    def test_cross_entropy_gradient_matches_numeric(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 2, 4])

        def f(lg):
            return CrossEntropyLoss()(lg, labels)

        loss(logits, labels)
        np.testing.assert_allclose(
            loss.backward(), numerical_gradient(f, logits.copy()), atol=1e-6
        )

    def test_cross_entropy_gradient_rows_sum_to_zero(self, rng):
        loss = CrossEntropyLoss()
        loss(rng.normal(size=(4, 6)), np.array([0, 5, 2, 2]))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-15)

    def test_kl_divergence_finite_with_zero_probabilities(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.0, 1.0]])
        assert np.isfinite(kl_divergence(p, q))
        assert kl_divergence(p, q) > 10.0

    def test_kl_divergence_zero_for_identical(self, rng):
        p = softmax(rng.normal(size=(4, 6)))
        assert kl_divergence(p, p) < 1e-10

    def test_kl_divergence_positive(self, rng):
        p = softmax(rng.normal(size=(4, 6)))
        q = softmax(rng.normal(size=(4, 6)))
        assert kl_divergence(p, q) > 0

    def test_distillation_gradient_matches_numeric(self, rng):
        teacher = softmax(rng.normal(size=(3, 4)))
        logits = rng.normal(size=(3, 4))
        loss = DistillationLoss(temperature=2.0)

        def f(lg):
            return DistillationLoss(temperature=2.0)(lg, teacher)

        loss(logits, teacher)
        np.testing.assert_allclose(
            loss.backward(), numerical_gradient(f, logits.copy()), atol=1e-6
        )

    def test_distillation_zero_when_matching_teacher(self, rng):
        logits = rng.normal(size=(3, 4))
        teacher = softmax(logits / 3.0)
        assert DistillationLoss(temperature=3.0)(logits, teacher) < 1e-10

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            DistillationLoss(temperature=0)


class TestOptimizers:
    def _quadratic_problem(self):
        net = Network([Dense(1, use_bias=False, name="w")]).build((1,), seed=0)
        return net

    def test_sgd_reduces_quadratic_loss(self):
        net = self._quadratic_problem()
        param = next(net.parameters())
        opt = SGD(net.parameters(), lr=0.1, momentum=0.0, weight_decay=0.0)
        x = np.ones((1, 1))
        for _ in range(50):
            opt.zero_grad()
            out = net.forward(x)
            param.grad += 2 * (out - 3.0).T @ x  # d/dw of (w - 3)^2
            opt.step()
        assert abs(param.value[0, 0] - 3.0) < 1e-3

    def test_sgd_weight_decay_shrinks_weights(self):
        net = self._quadratic_problem()
        param = next(net.parameters())
        param.value[...] = 10.0
        opt = SGD(net.parameters(), lr=0.1, momentum=0.0, weight_decay=0.5)
        for _ in range(5):
            opt.zero_grad()
            opt.step()
        assert abs(param.value[0, 0]) < 10.0

    def test_sgd_momentum_accumulates_velocity(self):
        net = self._quadratic_problem()
        param = next(net.parameters())
        start = param.value[0, 0]
        opt = SGD(net.parameters(), lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            opt.zero_grad()
            param.grad += 1.0
            opt.step()
        # v1 = g, v2 = 0.9·g + g: the weight moves by lr·(1 + 1.9)·g
        assert param.value[0, 0] == pytest.approx(start - 0.1 * 2.9)

    def test_sgd_step_is_momentum_over_the_l2_decayed_gradient_in_bytes(self):
        rng = np.random.default_rng(0)
        param = Parameter(rng.normal(size=(3, 4)))
        lr, momentum, decay = 0.05, 0.9, 5e-4
        opt = SGD([param], lr=lr, momentum=momentum, weight_decay=decay)
        w, v = param.value.copy(), np.zeros_like(param.value)
        for _ in range(2):  # the second step starts from a nonzero velocity
            param.grad = rng.normal(size=w.shape)
            v = momentum * v + (param.grad + decay * w)
            w = w - lr * v
            opt.step()
            assert param.value.tobytes() == w.tobytes()

    def test_sgd_step_changes_the_weights_version(self):
        net = self._quadratic_problem()
        version = net.weights_version
        opt = SGD(net.parameters(), lr=0.1)
        opt.zero_grad()
        opt.step()
        assert net.weights_version != version

    def test_invalid_momentum_and_weight_decay_rejected(self):
        net = self._quadratic_problem()
        with pytest.raises(ValueError):
            SGD(net.parameters(), momentum=1.0)
        with pytest.raises(ValueError):
            SGD(net.parameters(), weight_decay=-1e-4)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr_rejected(self):
        net = self._quadratic_problem()
        with pytest.raises(ValueError):
            SGD(net.parameters(), lr=0)


class TestInitializers:
    def test_he_normal_scale(self, rng):
        w = he_normal((1000, 100), rng)
        assert abs(w.std() - np.sqrt(2.0 / 1000)) < 0.01

    def test_zeros(self):
        b = zeros((3, 3))
        assert b.dtype == np.float64 and np.all(b == 0)

    def test_conv_fan_in(self, rng):
        w = he_normal((64, 32, 3, 3), rng)
        assert abs(w.std() - np.sqrt(2.0 / (32 * 9))) < 0.01
