"""Deep-ensemble baseline.

The paper motivates multi-exit MCD BayesNNs as a cheaper alternative to deep
ensembles (independent networks trained from different initializations whose
predictions are averaged).  This module provides that baseline so its
calibration and FLOP cost can be compared against the multi-exit approach.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..nn.layers.activations import softmax
from ..nn.losses import CrossEntropyLoss
from ..nn.model import Network
from ..nn.optimizers import SGD
from ..nn.training import Trainer

__all__ = ["DeepEnsemble"]


class DeepEnsemble:
    """An equally-weighted ensemble of independently initialized networks.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning an *unbuilt* :class:`Network`; it is
        called once per ensemble member.
    input_shape:
        Per-sample input shape used to build each member.
    num_members:
        Ensemble size.
    seed:
        Base seed; member ``i`` is built with ``seed + i`` so that members
        differ only in their initialization (and data order during training).

    Prediction runs each member through one plain inference-mode forward
    pass; the folded Monte-Carlo machinery of :mod:`repro.inference` serves
    :class:`~repro.core.bayesnn.MultiExitBayesNet` only.
    """

    def __init__(
        self,
        model_factory: Callable[[], Network],
        input_shape: Sequence[int],
        num_members: int = 3,
        seed: int = 0,
    ) -> None:
        if num_members <= 0:
            raise ValueError("num_members must be positive")
        self.input_shape = tuple(input_shape)
        self.seed = int(seed)
        self.members: list[Network] = []
        for i in range(num_members):
            member = model_factory()
            member.name = f"{member.name}_member{i}"
            member.build(self.input_shape, seed=self.seed + i)
            self.members.append(member)

    @property
    def num_members(self) -> int:
        return len(self.members)

    # ------------------------------------------------------------------ #
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        lr: float = 0.05,
        batch_size: int = 64,
        weight_decay: float = 5e-4,
    ) -> list[float]:
        """Train every member independently; returns final training accuracy per member."""
        final_acc: list[float] = []
        for i, member in enumerate(self.members):
            optimizer = SGD(member.parameters(), lr=lr, weight_decay=weight_decay)
            trainer = Trainer(
                member,
                optimizer,
                CrossEntropyLoss(),
                batch_size=batch_size,
                seed=self.seed + 100 + i,
            )
            history = trainer.fit(x, y, epochs=epochs)
            final_acc.append(history.accuracy[-1])
        return final_acc

    # ------------------------------------------------------------------ #
    def member_probabilities(self, x: np.ndarray) -> np.ndarray:
        """Per-member predictive distributions, shape ``(M, N, classes)``.

        Each member runs one inference-mode forward pass.  A member with
        MC-dropout layers draws its masks from the default forward context,
        so its distribution is a single stochastic sample, not an MC mean.
        """
        return np.stack(
            [softmax(m.forward(x, training=False), axis=-1) for m in self.members]
        )

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Equally-weighted ensemble predictive distribution ``(N, classes)``."""
        return self.member_probabilities(x).mean(axis=0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return self.predict_proba(x).argmax(axis=1)

    def total_parameters(self) -> int:
        """Total parameter count across all members (the ensemble's memory cost)."""
        return sum(m.num_parameters for m in self.members)
