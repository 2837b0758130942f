"""Tests for the trainers and the backbone architecture factories."""

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn import (
    SGD,
    CrossEntropyLoss,
    DistillationTrainer,
    Trainer,
)
from repro.nn.architectures import (
    get_architecture,
    lenet5_spec,
    resnet_spec,
    vgg_spec,
)
from repro.nn.architectures.common import scale_channels
from repro.nn.layers import Conv2D, ResidualBlock
from repro.nn.training import iterate_minibatches

from ..conftest import small_lenet_spec


def _assert_a_stale_gradient_changes_nothing(make_model, make_trainer, x, y):
    """Twin models take one step on ``(x, y)``; one twin starts with garbage
    in every gradient, as an earlier step would leave it.  The trainer's
    optimizer zeroes the gradients, so both steps must be identical."""
    clean, stale = make_model(), make_model()
    for param in stale.parameters():
        param.grad[...] = 1e3
    make_trainer(clean).train_on_batch(x, y)
    make_trainer(stale).train_on_batch(x, y)
    for a, b in zip(clean.parameters(), stale.parameters()):
        np.testing.assert_array_equal(a.grad, b.grad)
        np.testing.assert_array_equal(a.value, b.value)


class TestMinibatches:
    def test_covers_all_samples(self, rng):
        x = np.arange(10)[:, None].astype(float)
        y = np.arange(10)
        seen = []
        for xb, yb in iterate_minibatches(x, y, 3, rng):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_batch_sizes(self, rng):
        x = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        sizes = [len(xb) for xb, _ in iterate_minibatches(x, y, 4, rng)]
        assert sizes == [4, 4, 2]

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.zeros((3, 1)), np.zeros(2), 2, rng))


class TestTrainer:
    def test_training_reduces_loss(self, tiny_dataset):
        spec = small_lenet_spec()
        net = spec.single_exit_network(seed=0)
        trainer = Trainer(
            net, SGD(
                net.parameters(), lr=0.05
            ), CrossEntropyLoss(), batch_size=32, seed=0
        )
        history = trainer.fit(tiny_dataset.train.x, tiny_dataset.train.y, epochs=3)
        assert history.loss[-1] < history.loss[0]

    def test_training_beats_chance(self, tiny_dataset):
        spec = small_lenet_spec()
        net = spec.single_exit_network(seed=0)
        trainer = Trainer(
            net, SGD(
                net.parameters(), lr=0.05
            ), CrossEntropyLoss(), batch_size=32, seed=0
        )
        trainer.fit(tiny_dataset.train.x, tiny_dataset.train.y, epochs=4)
        predicted = net.predict(tiny_dataset.train.x).argmax(axis=1)
        acc = float((predicted == tiny_dataset.train.y).mean())
        assert acc > 1.0 / tiny_dataset.num_classes + 0.1

    def test_each_step_starts_from_zeroed_gradients(self, tiny_dataset):
        _assert_a_stale_gradient_changes_nothing(
            lambda: small_lenet_spec().single_exit_network(seed=0),
            lambda net: Trainer(net, SGD(net.parameters(), lr=0.05)),
            tiny_dataset.train.x[:8],
            tiny_dataset.train.y[:8],
        )

    def test_history_epochs(self, tiny_dataset):
        spec = small_lenet_spec()
        net = spec.single_exit_network(seed=0)
        trainer = Trainer(net, SGD(net.parameters(), lr=0.05), batch_size=32)
        history = trainer.fit(tiny_dataset.train.x, tiny_dataset.train.y, epochs=2)
        assert len(history.loss) == len(history.accuracy) == 2


class TestDistillationTrainer:
    def test_multi_exit_training_reduces_loss(self, tiny_dataset):
        model = MultiExitBayesNet(
            small_lenet_spec(),
            MultiExitConfig(
                num_exits=2, mcd_layers_per_exit=1, dropout_rate=0.125, seed=0
            ),
        )
        trainer = DistillationTrainer(
            model, SGD(model.parameters(), lr=0.05), batch_size=32, seed=0
        )
        history = trainer.fit(tiny_dataset.train.x, tiny_dataset.train.y, epochs=3)
        assert history.loss[-1] < history.loss[0]

    def test_distillation_weight_zero_is_pure_ce(self, tiny_dataset):
        model = MultiExitBayesNet(
            small_lenet_spec(),
            MultiExitConfig(
                num_exits=2, mcd_layers_per_exit=0, dropout_rate=0.0, seed=0
            ),
        )
        trainer = DistillationTrainer(
            model, SGD(model.parameters(), lr=0.05), distill_weight=0.0, batch_size=32
        )
        loss, acc = trainer.train_on_batch(
            tiny_dataset.train.x[:16], tiny_dataset.train.y[:16]
        )
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0

    def test_each_step_starts_from_zeroed_gradients(self, tiny_dataset):
        def model():
            return MultiExitBayesNet(
                small_lenet_spec(),
                MultiExitConfig(num_exits=2, mcd_layers_per_exit=0, seed=0),
            )

        _assert_a_stale_gradient_changes_nothing(
            model,
            lambda m: DistillationTrainer(m, SGD(m.parameters(), lr=0.05)),
            tiny_dataset.train.x[:8],
            tiny_dataset.train.y[:8],
        )

    def test_negative_distill_weight_rejected(self, tiny_dataset, multi_exit_model):
        with pytest.raises(ValueError):
            DistillationTrainer(
                multi_exit_model,
                SGD(multi_exit_model.parameters(), lr=0.05),
                distill_weight=-1.0,
            )


class TestArchitectures:
    def test_scale_channels(self):
        assert scale_channels(64, 0.5) == 32
        assert scale_channels(64, 0.01) == 4  # floor at the minimum
        with pytest.raises(ValueError):
            scale_channels(0, 1.0)

    def test_lenet_structure(self):
        spec = lenet5_spec()
        assert spec.num_blocks == 2
        assert spec.exit_points[-1] == len(spec.backbone.layers)

    def test_lenet_single_exit_network(self, rng):
        spec = lenet5_spec(input_shape=(1, 28, 28))
        net = spec.single_exit_network()
        out = net.predict(rng.normal(size=(2, 1, 28, 28)))
        assert out.shape == (2, 10)

    def test_vgg11_has_five_blocks_at_32(self):
        spec = vgg_spec("vgg11", input_shape=(3, 32, 32))
        assert spec.num_blocks == 5

    def test_vgg19_conv_count(self):
        spec = vgg_spec("vgg19", input_shape=(3, 32, 32), use_batchnorm=False)
        convs = [layer for layer in spec.backbone.layers if isinstance(layer, Conv2D)]
        assert len(convs) == 16

    def test_vgg_truncated_for_small_inputs(self):
        spec = vgg_spec("vgg11", input_shape=(3, 8, 8))
        assert spec.num_blocks == 3  # 8 -> 4 -> 2 -> 1

    def test_vgg_unknown_variant(self):
        with pytest.raises(ValueError):
            vgg_spec("vgg99")

    def test_resnet18_block_count(self):
        spec = resnet_spec("resnet18", input_shape=(3, 32, 32))
        blocks = [
            layer for layer in spec.backbone.layers if isinstance(layer, ResidualBlock)
        ]
        assert len(blocks) == 8
        assert spec.num_blocks == 4

    def test_resnet_forward(self, rng):
        spec = resnet_spec(
            "resnet10", input_shape=(3, 16, 16), width_multiplier=0.125, max_stages=2
        )
        net = spec.single_exit_network()
        assert net.predict(rng.normal(size=(2, 3, 16, 16))).shape == (2, 10)

    def test_resnet_unknown_variant(self):
        with pytest.raises(ValueError):
            resnet_spec("resnet999")

    def test_width_multiplier_reduces_parameters(self):
        wide = lenet5_spec(width_multiplier=1.0).single_exit_network()
        narrow = lenet5_spec(width_multiplier=0.5).single_exit_network()
        def size(net):
            return sum(p.size for p in net.parameters())

        assert size(narrow) < size(wide)

    def test_get_architecture_lookup(self):
        assert get_architecture("lenet5").name == "lenet5"
        assert get_architecture("resnet18", input_shape=(3, 32, 32)).name == "resnet18"
        assert get_architecture("vgg11", input_shape=(3, 32, 32)).name == "vgg11"
        with pytest.raises(ValueError):
            get_architecture("alexnet")

    def test_exit_points_increasing(self):
        for spec in (
            lenet5_spec(),
            vgg_spec("vgg11", input_shape=(3, 32, 32)),
            resnet_spec("resnet18", input_shape=(3, 32, 32)),
        ):
            assert spec.exit_points == sorted(spec.exit_points)

    def test_spec_validation_rejects_bad_exit_points(self):
        spec = lenet5_spec()
        from repro.nn.architectures.common import BackboneSpec

        with pytest.raises(ValueError):
            BackboneSpec(
                name="bad",
                backbone=spec.backbone,
                exit_points=[1, 99],
                input_shape=spec.input_shape,
                num_classes=10,
                final_head_factory=spec.final_head_factory,
            )
