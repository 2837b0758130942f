"""Residual block used by the ResNet-18 backbone.

The block is implemented as a composite layer so that the surrounding
:class:`repro.nn.model.Network` can stay a simple sequential container —
which in turn keeps exit placement (one exit per semantic block) and the
hardware lowering straightforward.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..context import ForwardContext
from .activations import ReLU, relu_
from .base import Layer, Parameter
from .batchnorm import BatchNorm
from .conv import Conv2D

__all__ = ["ResidualBlock"]


class ResidualBlock(Layer):
    """Basic (two-convolution) residual block.

    ``out = ReLU( BN(Conv(ReLU(BN(Conv(x))))) + shortcut(x) )``

    When ``stride != 1`` or the channel count changes, the shortcut is a
    1x1 strided convolution followed by batch normalization (the standard
    ResNet "option B" projection shortcut).
    """

    def __init__(
        self,
        filters: int,
        stride: int = 1,
        use_batchnorm: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if filters <= 0:
            raise ValueError("filters must be positive")
        self.filters = int(filters)
        self.stride = int(stride)
        self.use_batchnorm = bool(use_batchnorm)

        prefix = self.name
        self.conv1 = Conv2D(
            filters,
            3,
            stride=stride,
            padding=1,
            use_bias=not use_batchnorm,
            name=f"{prefix}_conv1",
        )
        self.conv2 = Conv2D(
            filters,
            3,
            stride=1,
            padding=1,
            use_bias=not use_batchnorm,
            name=f"{prefix}_conv2",
        )
        self.bn1 = BatchNorm(name=f"{prefix}_bn1") if use_batchnorm else None
        self.bn2 = BatchNorm(name=f"{prefix}_bn2") if use_batchnorm else None
        self.relu1 = ReLU(name=f"{prefix}_relu1")
        self.relu2 = ReLU(name=f"{prefix}_relu2")

        # populated at build time if a projection shortcut is required
        self.shortcut_conv: Conv2D | None = None
        self.shortcut_bn: BatchNorm | None = None

    # ------------------------------------------------------------------ #
    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return self.conv1.compute_output_shape(input_shape)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        Layer.build(self, input_shape, rng)
        in_channels = input_shape[0]

        self.conv1.build(input_shape, rng)
        mid_shape = self.conv1.output_shape
        if self.bn1 is not None:
            self.bn1.build(mid_shape, rng)
        self.relu1.build(mid_shape, rng)
        self.conv2.build(mid_shape, rng)
        if self.bn2 is not None:
            self.bn2.build(self.conv2.output_shape, rng)

        needs_projection = self.stride != 1 or in_channels != self.filters
        if needs_projection:
            self.shortcut_conv = Conv2D(
                self.filters,
                1,
                stride=self.stride,
                padding=0,
                use_bias=not self.use_batchnorm,
                name=f"{self.name}_proj",
            )
            self.shortcut_conv.build(input_shape, rng)
            if self.use_batchnorm:
                self.shortcut_bn = BatchNorm(name=f"{self.name}_proj_bn")
                self.shortcut_bn.build(self.shortcut_conv.output_shape, rng)
        self.relu2.build(self.output_shape, rng)

    # ------------------------------------------------------------------ #
    def sublayers(self) -> list[Layer]:
        """All constituent layers, in execution order (shortcut last)."""
        layers: list[Layer] = [self.conv1]
        if self.bn1 is not None:
            layers.append(self.bn1)
        layers.append(self.relu1)
        layers.append(self.conv2)
        if self.bn2 is not None:
            layers.append(self.bn2)
        if self.shortcut_conv is not None:
            layers.append(self.shortcut_conv)
        if self.shortcut_bn is not None:
            layers.append(self.shortcut_bn)
        layers.append(self.relu2)
        return layers

    def parameters(self) -> Iterator[Parameter]:
        for layer in self.sublayers():
            yield from layer.parameters()

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.sublayers())

    # ------------------------------------------------------------------ #
    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        ctx: ForwardContext | None = None,
    ) -> np.ndarray:
        ctx = self._ctx(ctx)
        out = self.conv1.forward(x, training, ctx=ctx)
        if self.bn1 is not None:
            out = self.bn1.forward(out, training, ctx=ctx)
        out = self.relu1.forward(out, training, ctx=ctx)
        out = self.conv2.forward(out, training, ctx=ctx)
        if self.bn2 is not None:
            out = self.bn2.forward(out, training, ctx=ctx)

        if self.shortcut_conv is not None:
            shortcut = self.shortcut_conv.forward(x, training, ctx=ctx)
            if self.shortcut_bn is not None:
                shortcut = self.shortcut_bn.forward(shortcut, training, ctx=ctx)
        else:
            shortcut = x

        return self.relu2.forward(out + shortcut, training, ctx=ctx)

    def forward_inference(
        self, x: np.ndarray, conv: Callable[[Conv2D, np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Inference-mode forward with the convolutions evaluated by ``conv``.

        ``conv(layer, x)`` must return the bias-added output of one of this
        block's convolutions as a *freshly allocated* array (what
        ``layer.forward`` returns, by whatever route): batch norm, ReLU and
        the residual add are then applied in place on those outputs, so
        the block allocates nothing of its own and saves nothing for a
        backward pass.  Bit-identical to :meth:`forward` given bit-identical
        convolutions — every element sees the same operations in the same
        order — and the result has the same memory order: the add runs in
        place only when the shortcut shares the main branch's strides;
        otherwise (an identity shortcut from, say, a C-contiguous tiled
        input) NumPy picks the layout, as it does for ``out + shortcut``.
        """
        out = conv(self.conv1, x)
        if self.bn1 is not None:
            self.bn1.normalize_(out)
        out = conv(self.conv2, relu_(out))
        if self.bn2 is not None:
            self.bn2.normalize_(out)

        if self.shortcut_conv is not None:
            shortcut = conv(self.shortcut_conv, x)
            if self.shortcut_bn is not None:
                self.shortcut_bn.normalize_(shortcut)
        else:
            shortcut = x

        same_order = shortcut.strides == out.strides
        return relu_(np.add(out, shortcut, out=out if same_order else None))

    def backward(
        self, grad_output: np.ndarray, ctx: ForwardContext | None = None
    ) -> np.ndarray:
        ctx = self._ctx(ctx)
        grad_sum = self.relu2.backward(grad_output, ctx=ctx)

        # main branch
        grad = grad_sum
        if self.bn2 is not None:
            grad = self.bn2.backward(grad, ctx=ctx)
        grad = self.conv2.backward(grad, ctx=ctx)
        grad = self.relu1.backward(grad, ctx=ctx)
        if self.bn1 is not None:
            grad = self.bn1.backward(grad, ctx=ctx)
        grad_main = self.conv1.backward(grad, ctx=ctx)

        # shortcut branch
        if self.shortcut_conv is not None:
            grad_short = grad_sum
            if self.shortcut_bn is not None:
                grad_short = self.shortcut_bn.backward(grad_short, ctx=ctx)
            grad_short = self.shortcut_conv.backward(grad_short, ctx=ctx)
        else:
            grad_short = grad_sum

        return grad_main + grad_short

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "filters": self.filters,
                "stride": self.stride,
                "use_batchnorm": self.use_batchnorm,
                "projection_shortcut": self.shortcut_conv is not None,
                "sublayers": [layer.describe() for layer in self.sublayers()],
            }
        )
        return info
