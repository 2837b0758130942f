"""Backbone architecture factories (LeNet-5, VGG, ResNet)."""

from .common import BackboneSpec, scale_channels
from .lenet import lenet5_spec
from .resnet import RESNET_CONFIGS, resnet_spec
from .vgg import VGG_CONFIGS, vgg_spec

__all__ = [
    "BackboneSpec",
    "scale_channels",
    "lenet5_spec",
    "resnet_spec",
    "RESNET_CONFIGS",
    "vgg_spec",
    "VGG_CONFIGS",
    "get_architecture",
]


def get_architecture(name: str, **kwargs) -> BackboneSpec:
    """Look up an architecture factory by name.

    Accepted names: ``"lenet5"``, any key of :data:`RESNET_CONFIGS`, and any
    key of :data:`VGG_CONFIGS`.
    """
    if name == "lenet5":
        return lenet5_spec(**kwargs)
    if name in RESNET_CONFIGS:
        return resnet_spec(name, **kwargs)
    if name in VGG_CONFIGS:
        return vgg_spec(name, **kwargs)
    raise ValueError(
        f"unknown architecture {name!r}; available: "
        f"['lenet5'] + {sorted(RESNET_CONFIGS)} + {sorted(VGG_CONFIGS)}"
    )
