"""HLS lowering: hardware IR, code generation and synthesis reports."""

from .codegen import HLSCodeGenerator
from .ir import HardwareIR, HWLayerNode
from .report import SynthesisReport

__all__ = [
    "HardwareIR",
    "HWLayerNode",
    "HLSCodeGenerator",
    "SynthesisReport",
]
