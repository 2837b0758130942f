"""Initial parameters are pinned: a model built at seed 0 has fixed bytes.

The digests are sha256 over every parameter's bytes, in
``model.parameters()`` order.  They guard the weight initializer, the
exit-head construction and the MC-dropout placement: any change to how a
model is built that moves a single weight bit fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet
from repro.nn.architectures import lenet5_spec, resnet_spec, vgg_spec


def _lenet():
    return lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)


def _resnet10():
    return resnet_spec(
        "resnet10", input_shape=(3, 8, 8), num_classes=4, width_multiplier=0.125
    )


def _multi_exit(spec):
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )


MODELS = {
    "lenet5": lambda: _multi_exit(_lenet()),
    "resnet10": lambda: _multi_exit(_resnet10()),
    "vgg11": lambda: _multi_exit(
        vgg_spec(
            "vgg11",
            input_shape=(3, 8, 8),
            num_classes=4,
            width_multiplier=0.125,
            max_stages=3,
        )
    ),
    "single_exit_lenet5": lambda: single_exit_bayesnet(
        _lenet(), num_mcd_layers=2, seed=0
    ),
    "se_lenet5": lambda: single_exit_bayesnet(_lenet(), seed=0),
    "se_resnet10": lambda: single_exit_bayesnet(_resnet10(), seed=0),
}

DIGESTS = {
    "lenet5": "7eb27899f4a3637906ae381a5f82b9af5787cb37b5f6486bc2cc5d6063c9a550",
    "resnet10": "2e5b11af316374b5eaa43ddc82bd350b90d704b994a615a46b5caecdff17c637",
    "vgg11": "51571e32ebf234380aa46ffdf6c85d73b9aa36a61b2eed5f3fb2186789db38b4",
    "single_exit_lenet5": (
        "3411d92d299133af29b7574938be1284b0d9de5799c69df6589f3dc87fbafa7f"
    ),
    # MC-dropout layers hold no parameters, so the SE LeNet's bytes are the
    # two-MCD network's
    "se_lenet5": "3411d92d299133af29b7574938be1284b0d9de5799c69df6589f3dc87fbafa7f",
    "se_resnet10": "6dcfde0737138d89e80785668cab9d28ca05ae3b3a02df6cc152e46536e72d6c",
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_initial_parameters_are_pinned(name):
    digest = hashlib.sha256()
    for param in MODELS[name]().parameters():
        digest.update(np.ascontiguousarray(param.value).tobytes())
    assert digest.hexdigest() == DIGESTS[name]
