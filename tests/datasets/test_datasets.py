"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    DatasetSplit,
    SyntheticImageDataset,
    cifar100_like,
    mnist_like,
)


class TestSyntheticDataset:
    def test_shapes_and_sizes(self):
        ds = SyntheticImageDataset(
            "t", (3, 8, 8), 4, train_size=40, test_size=10, seed=0
        )
        assert ds.train.x.shape == (40, 3, 8, 8)
        assert ds.test.x.shape == (10, 3, 8, 8)
        assert ds.train.y.shape == (40,)

    def test_labels_in_range(self):
        ds = SyntheticImageDataset(
            "t", (1, 8, 8), 6, train_size=60, test_size=20, seed=1
        )
        assert ds.train.y.min() >= 0 and ds.train.y.max() < 6

    def test_deterministic_given_seed(self):
        a = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=20, test_size=10, seed=7
        )
        b = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=20, test_size=10, seed=7
        )
        np.testing.assert_allclose(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.train.y, b.train.y)

    def test_different_seeds_differ(self):
        a = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=20, test_size=10, seed=1
        )
        b = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=20, test_size=10, seed=2
        )
        assert not np.allclose(a.train.x, b.train.x)

    def test_normalisation(self):
        ds = SyntheticImageDataset(
            "t", (3, 8, 8), 4, train_size=200, test_size=50, seed=0
        )
        assert abs(ds.train.x.mean()) < 0.1
        assert abs(ds.train.x.std() - 1.0) < 0.1

    def test_task_is_learnable(self):
        """Same-class samples must be closer to their prototype than to others."""
        ds = SyntheticImageDataset(
            "t", (1, 10, 10), 3, train_size=90, test_size=30, noise_level=0.3, seed=0
        )
        x, y = ds.train.x, ds.train.y
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        correct = 0
        for xi, yi in zip(x, y):
            dists = [np.linalg.norm(xi - c) for c in centroids]
            correct += int(np.argmin(dists) == yi)
        assert correct / len(y) > 0.7

    def test_shifted_test_set_is_shifted(self):
        ds = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=20, test_size=20, seed=0
        )
        shifted = ds.shifted_test_set(noise_multiplier=2.0, intensity_shift=1.0)
        assert shifted.x.shape == ds.test.x.shape
        assert shifted.x.mean() > ds.test.x.mean() + 0.5
        np.testing.assert_array_equal(shifted.y, ds.test.y)

    def test_describe(self):
        ds = mnist_like(train_size=16, test_size=8)
        meta = ds.describe()
        assert meta["name"] == "mnist_like"
        assert meta["num_classes"] == 10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset("t", (1, 8, 8), 1, train_size=10, test_size=5)
        with pytest.raises(ValueError):
            SyntheticImageDataset("t", (1, 8, 8), 3, train_size=0, test_size=5)
        with pytest.raises(ValueError):
            DatasetSplit(np.zeros((3, 1)), np.zeros(2))

    def test_factory_shapes(self):
        assert mnist_like(train_size=4, test_size=2).input_shape == (1, 28, 28)
        ds = cifar100_like(train_size=4, test_size=2, num_classes=20)
        assert ds.num_classes == 20

    def test_cifar100_like_shapes_and_labels(self):
        ds = cifar100_like(train_size=30, test_size=10, image_size=8, num_classes=7)
        assert ds.train.x.shape == (30, 3, 8, 8)
        assert ds.test.x.shape == (10, 3, 8, 8)
        assert ds.train.y.min() >= 0 and ds.train.y.max() < 7
        assert ds.describe()["noise_level"] == 0.8

    def test_factories_are_deterministic_given_seed(self):
        for factory in (mnist_like, cifar100_like):
            kwargs = dict(train_size=6, test_size=3, image_size=8)
            a, b = factory(seed=4, **kwargs), factory(seed=4, **kwargs)
            c = factory(seed=5, **kwargs)
            np.testing.assert_array_equal(a.train.x, b.train.x)
            np.testing.assert_array_equal(a.test.y, b.test.y)
            assert not np.allclose(a.train.x, c.train.x)

    def test_train_and_test_splits_are_drawn_apart(self):
        ds = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=10, test_size=10, seed=0
        )
        assert not np.allclose(ds.train.x, ds.test.x)

    def test_shifted_test_set_follows_its_seed(self):
        ds = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=10, test_size=10, seed=0
        )
        np.testing.assert_array_equal(
            ds.shifted_test_set().x, ds.shifted_test_set().x
        )
        assert not np.allclose(
            ds.shifted_test_set(seed=1).x, ds.shifted_test_set(seed=2).x
        )

    def test_unit_noise_multiplier_only_shifts_intensity(self):
        ds = SyntheticImageDataset(
            "t", (1, 8, 8), 3, train_size=10, test_size=10, seed=0
        )
        shifted = ds.shifted_test_set(noise_multiplier=1.0, intensity_shift=0.25)
        np.testing.assert_allclose(shifted.x, ds.test.x + 0.25)
