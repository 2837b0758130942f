"""The optimizer base and SGD.

The paper trains with SGD, momentum 0.9, weight decay 5e-4 and an initial
learning rate of 0.1 — :class:`SGD` implements exactly that configuration.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers.base import Parameter

__all__ = ["Optimizer", "SGD"]


class Optimizer:
    """Base optimizer over a fixed list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and coupled L2 weight decay.

    The decay joins the gradient before the momentum, as an L2 penalty's
    gradient would: ``v ← momentum·v + (g + weight_decay·w)``, then
    ``w ← w − lr·v``.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.value) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            v *= self.momentum
            v += grad
            p.value -= self.lr * v
            p.bump_version()
