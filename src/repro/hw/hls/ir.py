"""Hardware intermediate representation (IR).

Phase 4 of the transformation framework lowers the optimised multi-exit MCD
BayesNN into a dataflow graph of hardware layer nodes, from which the HLS
code generator emits the accelerator sources.  The IR is a chain of
:class:`HWLayerNode` records in execution order (each node feeds the next,
so it is acyclic by construction); it distinguishes the deterministic
region (instantiated once) from the Bayesian region (replicated per MC
engine under spatial mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accelerator import AcceleratorModel

__all__ = ["HWLayerNode", "HardwareIR"]

#: mapping from substrate layer types to hardware kernel names
_HW_KERNELS = {
    "Conv2D": "conv2d",
    "Dense": "dense",
    "BatchNorm": "batchnorm",
    "ReLU": "relu",
    "MaxPool2D": "maxpool2d",
    "GlobalAvgPool2D": "global_avgpool",
    "Flatten": "flatten",
    "MCDropout": "mc_dropout",
    "ResidualBlock": "residual_block",
}


@dataclass
class HWLayerNode:
    """One hardware kernel instance in the accelerator dataflow graph."""

    name: str
    kernel: str
    source_type: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    region: str  # "deterministic" or "bayesian"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.region not in ("deterministic", "bayesian"):
            raise ValueError("region must be 'deterministic' or 'bayesian'")

    @property
    def is_bayesian(self) -> bool:
        return self.region == "bayesian"

    @property
    def input_size(self) -> int:
        return _prod(self.input_shape)

    @property
    def output_size(self) -> int:
        return _prod(self.output_shape)


class HardwareIR:
    """Dataflow-chain view of an accelerator design."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: dict[str, HWLayerNode] = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def from_accelerator(cls, accel: AcceleratorModel) -> "HardwareIR":
        """Lower an :class:`AcceleratorModel` into a hardware IR."""
        ir = cls(name=accel.name)
        for desc in accel.deterministic_descs:
            ir._append(desc, "deterministic")
        for desc in accel.bayesian_descs:
            ir._append(desc, "bayesian")
        return ir

    def _append(self, desc: dict, region: str) -> None:
        """Add the node for ``desc`` at the end of the chain."""
        source_type = desc["type"]
        kernel = _HW_KERNELS.get(source_type, "passthrough")
        name = desc.get("name", source_type.lower())
        # guard against duplicate node names (flatten layers etc.)
        unique = name
        suffix = 1
        while unique in self._nodes:
            suffix += 1
            unique = f"{name}_{suffix}"
        node = HWLayerNode(
            name=unique,
            kernel=kernel,
            source_type=source_type,
            input_shape=tuple(desc.get("input_shape") or ()),
            output_shape=tuple(desc.get("output_shape") or ()),
            region=region,
            params={
                k: v
                for k, v in desc.items()
                if k not in ("type", "name", "input_shape", "output_shape", "sublayers")
            },
        )
        self._nodes[unique] = node

    # ------------------------------------------------------------------ #
    def nodes(self) -> list[HWLayerNode]:
        """All layer nodes in execution order."""
        return list(self._nodes.values())

    def deterministic_nodes(self) -> list[HWLayerNode]:
        return [n for n in self.nodes() if not n.is_bayesian]

    def bayesian_nodes(self) -> list[HWLayerNode]:
        return [n for n in self.nodes() if n.is_bayesian]

    def mcd_nodes(self) -> list[HWLayerNode]:
        return [n for n in self.nodes() if n.kernel == "mc_dropout"]

    def validate(self) -> None:
        """Check structural invariants of the IR."""
        if not self._nodes:
            raise ValueError("IR contains no layers")
        seen_bayesian = False
        for node in self.nodes():
            if node.is_bayesian:
                seen_bayesian = True
            elif seen_bayesian:
                raise ValueError(
                    "deterministic node appears after the Bayesian region: "
                    f"{node.name}"
                )


def _prod(shape) -> int:
    n = 1
    for s in shape or ():
        n *= int(s)
    return n
