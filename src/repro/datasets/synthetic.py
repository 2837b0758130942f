"""Synthetic image-classification datasets.

The original paper evaluates on MNIST, CIFAR-10, CIFAR-100 and SVHN.  Those
datasets are not available in this offline environment, so this module
provides deterministic synthetic stand-ins with the same shapes and class
counts.  Each class is defined by a smooth random "prototype" image; samples
are prototypes plus structured low-frequency noise and pixel noise.  The
resulting tasks are learnable by small CNNs but not trivially separable,
which preserves the *relative* comparisons the paper makes (accuracy and
calibration of SE vs MCD vs ME vs MCD+ME) even though absolute numbers
differ from the real datasets.

A distribution-shift variant (:meth:`SyntheticImageDataset.shifted_test_set`)
is included for uncertainty-under-shift experiments: it adds extra noise and
a global intensity shift, which degrades accuracy while calibrated models
should show increased predictive uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DatasetSplit",
    "SyntheticImageDataset",
    "mnist_like",
    "cifar100_like",
]


@dataclass
class DatasetSplit:
    """A pair of inputs and integer labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("inputs and labels must have the same length")

    def __len__(self) -> int:
        return len(self.x)


def _smooth_noise(
    rng: np.random.Generator,
    shape: tuple[int, int, int],
    smoothness: int,
) -> np.ndarray:
    """Low-frequency noise obtained by upsampling a coarse random grid."""
    c, h, w = shape
    coarse_h = max(2, h // smoothness)
    coarse_w = max(2, w // smoothness)
    coarse = rng.normal(size=(c, coarse_h, coarse_w))
    # bilinear-ish upsampling via repeated nearest + box blur
    up = np.repeat(
        np.repeat(coarse, int(np.ceil(h / coarse_h)), axis=1),
        int(np.ceil(w / coarse_w)),
        axis=2,
    )[:, :h, :w]
    kernel = np.ones((3, 3)) / 9.0
    blurred = np.empty_like(up)
    padded = np.pad(up, ((0, 0), (1, 1), (1, 1)), mode="edge")
    for ci in range(c):
        acc = np.zeros((h, w))
        for dy in range(3):
            for dx in range(3):
                acc += kernel[dy, dx] * padded[ci, dy : dy + h, dx : dx + w]
        blurred[ci] = acc
    return blurred


class SyntheticImageDataset:
    """Class-prototype synthetic image classification dataset.

    Parameters
    ----------
    name:
        Dataset name (used in reports).
    input_shape:
        Per-sample shape ``(C, H, W)``.
    num_classes:
        Number of classes.
    train_size, test_size:
        Number of generated samples per split.
    noise_level:
        Standard deviation of the per-pixel noise added to prototypes.
        Larger values make the task harder and predictions less confident.
    seed:
        Seed controlling prototypes and sampling; the same seed always yields
        the same dataset.
    """

    def __init__(
        self,
        name: str,
        input_shape: tuple[int, int, int],
        num_classes: int,
        train_size: int = 512,
        test_size: int = 256,
        noise_level: float = 0.6,
        prototype_scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if train_size <= 0 or test_size <= 0:
            raise ValueError("split sizes must be positive")
        self.name = name
        self.input_shape = tuple(input_shape)
        self.num_classes = int(num_classes)
        self.train_size = int(train_size)
        self.test_size = int(test_size)
        self.noise_level = float(noise_level)
        self.prototype_scale = float(prototype_scale)
        self.seed = int(seed)

        rng = np.random.default_rng(seed)
        self._prototypes = np.stack(
            [
                self.prototype_scale
                * _smooth_noise(rng, self.input_shape, smoothness=4)
                for _ in range(num_classes)
            ]
        )
        self.train = self._generate_split(
            self.train_size, np.random.default_rng(seed + 1)
        )
        self.test = self._generate_split(
            self.test_size, np.random.default_rng(seed + 2)
        )

    # ------------------------------------------------------------------ #
    def _generate_split(self, size: int, rng: np.random.Generator) -> DatasetSplit:
        labels = rng.integers(0, self.num_classes, size=size)
        images = np.empty((size, *self.input_shape), dtype=np.float64)
        for i, label in enumerate(labels):
            structured = _smooth_noise(rng, self.input_shape, smoothness=2)
            pixel = rng.normal(scale=self.noise_level, size=self.input_shape)
            images[i] = self._prototypes[label] + 0.5 * structured + pixel
        # normalise to roughly zero mean / unit variance
        images = (images - images.mean()) / (images.std() + 1e-8)
        return DatasetSplit(images, labels.astype(np.int64))

    def shifted_test_set(
        self,
        noise_multiplier: float = 2.0,
        intensity_shift: float = 0.5,
        seed: int | None = None,
    ) -> DatasetSplit:
        """Return a distribution-shifted copy of the test split.

        The shift adds extra pixel noise and a constant intensity offset;
        well-calibrated Bayesian models should respond with higher predictive
        uncertainty on this split.
        """
        rng = np.random.default_rng(self.seed + 1000 if seed is None else seed)
        extra = rng.normal(
            scale=self.noise_level * (noise_multiplier - 1.0),
            size=self.test.x.shape,
        )
        shifted = self.test.x + extra + intensity_shift
        return DatasetSplit(shifted, self.test.y.copy())

    def describe(self) -> dict:
        """Dataset metadata for reports."""
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "noise_level": self.noise_level,
            "seed": self.seed,
        }


def mnist_like(
    train_size: int = 512, test_size: int = 256, seed: int = 0, image_size: int = 28
) -> SyntheticImageDataset:
    """Synthetic stand-in for MNIST: 1-channel images, 10 classes."""
    return SyntheticImageDataset(
        "mnist_like",
        (1, image_size, image_size),
        10,
        train_size=train_size,
        test_size=test_size,
        noise_level=0.5,
        seed=seed,
    )


def cifar100_like(
    train_size: int = 1024,
    test_size: int = 512,
    seed: int = 0,
    image_size: int = 32,
    num_classes: int = 100,
    noise_level: float = 0.8,
) -> SyntheticImageDataset:
    """Synthetic stand-in for CIFAR-100: 3-channel images, 100 classes.

    ``num_classes`` can be reduced (e.g. to 20) and ``noise_level`` raised for
    the laptop-scale experiments, which keeps the task structure while
    shrinking runtime and keeping the task hard enough that calibration
    differences are visible.
    """
    return SyntheticImageDataset(
        "cifar100_like",
        (3, image_size, image_size),
        num_classes,
        train_size=train_size,
        test_size=test_size,
        noise_level=noise_level,
        seed=seed,
    )
