"""The Monte-Carlo dropout layer.

The paper implements Monte-Carlo dropout (MCD) as a *filter-wise* Bernoulli
mask applied to the output feature maps of a layer (Section II-A): for a
layer with :math:`F_i` filters, the mask :math:`M_i` has one Bernoulli draw
per filter.  Unlike conventional dropout, the MCD layer stays stochastic at
inference time — that is exactly what produces distinct Monte-Carlo samples.

The layer uses *inverted* dropout scaling (surviving activations are scaled
by ``1 / keep_prob``) so that the expected activation magnitude is preserved
and no rescaling is needed at evaluation time.  The generated HLS code in
:mod:`repro.hw.hls` instead follows the paper's Algorithm 1 verbatim.

The layer itself is stateless per call: masks are stored in the
:class:`~repro.nn.context.ForwardContext` and the Bernoulli draws come from
the *context-owned* RNG stream for this layer (see :meth:`ForwardContext.rng`
for the seeding/spawn rule).  The layer only carries the ``seed`` the streams
derive from, which is what lets several engine replicas run the same layer
concurrently with independent streams.
"""

from __future__ import annotations

import numpy as np

from ..context import ForwardContext
from .base import Layer

__all__ = ["MCDropout"]


class MCDropout(Layer):
    """Monte-Carlo dropout: stochastic during both training and inference.

    Running the same input through a network containing ``MCDropout`` layers
    multiple times yields distinct samples from the approximate posterior
    predictive distribution (Gal & Ghahramani, 2016).
    """

    stochastic = True

    def __init__(
        self,
        rate: float = 0.5,
        seed: int | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        #: seed every context derives its mask stream for this layer from
        self.seed = seed
        #: bumped by :meth:`reseed`; contexts compare it to re-derive streams
        self.seed_epoch = 0

    def reseed(self, seed: int) -> None:
        """Reset the mask stream(s), making subsequent masks reproducible.

        This is a *model-wide* operation: the new seed is recorded on the
        layer and the ``seed_epoch`` bump makes **every**
        :class:`~repro.nn.context.ForwardContext` — the process-wide default
        and each engine replica's private one — re-derive its stream for
        this layer from the new seed on its next draw.  Two ``reseed(s)``
        calls with the same ``s`` therefore replay the same mask sequence in
        whichever context draws next, exactly as when the layer owned its
        stream directly.
        """
        self.seed = int(seed)
        self.seed_epoch += 1

    @property
    def keep_prob(self) -> float:
        return 1.0 - self.rate

    def _draw_scaled(
        self, x: np.ndarray, rows: int, rng: np.random.Generator
    ) -> np.ndarray:
        """A Bernoulli keep-mask for ``rows`` rows like ``x``, divided by ``keep_prob``.

        The mask is filter-wise (Section II-A): **one Bernoulli per
        filter**.  On convolutional ``(N, C, H, W)`` activations it has
        shape ``(N, C, 1, 1)`` and drops whole feature maps; on dense
        ``(N, F)`` activations every feature *is* a single-element filter,
        so it is the full ``(N, F)`` shape.  Either way one ``rng.random``
        call consumes ``rows``-proportional stream, which is what lets
        :meth:`fold` draw all S per-sample masks in one call without
        changing the stream.

        For float64 the draw is scaled in place by the reciprocal, bit-exact
        because the mask holds only 0.0 and 1.0: ``0.0 * inv == 0.0 / keep``
        and ``1.0 * inv == inv == 1.0 / keep``.
        """
        if x.ndim == 4:
            shape: tuple[int, ...] = (rows, x.shape[1], 1, 1)
        else:
            shape = (rows,) + x.shape[1:]
        u = rng.random(shape)
        if x.dtype == np.float64:
            return np.multiply(u < self.keep_prob, 1.0 / self.keep_prob, out=u)
        return (u < self.keep_prob).astype(x.dtype) / self.keep_prob

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        ctx = self._ctx(ctx)
        if self.rate == 0.0:
            ctx.save(self, np.ones((1,) * x.ndim, dtype=x.dtype))
            return x
        scaled = self._draw_scaled(x, x.shape[0], ctx.rng(self))
        ctx.save(self, scaled)
        return x * scaled

    def fold(
        self, x: np.ndarray, num_samples: int, ctx: ForwardContext
    ) -> np.ndarray:
        """The sample-major ``(S·N, …)`` fold of ``x`` under S masks of this layer.

        Row ``s·N + n`` is example ``n`` under sample ``s``'s mask: the
        accelerator's clone step and the mask in one pass, with the bytes,
        memory order and RNG stream use of :meth:`forward` on ``x`` tiled S
        times, but no tile.  ``num_samples=1`` masks an already folded
        batch.  Nothing is saved in ``ctx``: the folded path has no backward.
        """
        n = x.shape[0]
        if self.rate == 0.0:
            reps = (num_samples,) + (1,) * (x.ndim - 1)
            return x if num_samples == 1 else np.tile(x, reps)
        scaled = self._draw_scaled(x, num_samples * n, ctx.rng(self))
        stacked = scaled.reshape((num_samples, n) + scaled.shape[1:])
        if scaled.shape[1:] == x.shape[1:]:
            out = np.multiply(x, stacked, out=stacked)
        else:
            # a filter-wise mask broadcasts over H and W, so the product
            # takes its layout from x: C order, as the tile's would be, for
            # a real fold; x's own layout, as forward keeps it, for S = 1
            out = np.multiply(x, stacked, order="C" if num_samples > 1 else "K")
        return out.reshape((num_samples * n,) + x.shape[1:])

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        return grad_output * self._ctx(ctx).saved(self)

    def describe(self) -> dict:
        info = super().describe()
        info.update({"rate": self.rate, "stochastic_at_inference": self.stochastic})
        return info
