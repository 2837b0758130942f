"""A :class:`BackboneSpec` owns no layers: every build makes fresh ones.

One spec may build any number of models, of any kind, in any order.  Each
model's parameters must be the bytes the same build gives from a spec of
its own, must stay those bytes while later models are built, and must be
shared with no other model.  A pickled spec builds the same models.
"""

import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet

from ..conftest import small_lenet_spec, small_resnet_spec, small_vgg_spec

SPECS = {
    "lenet5": small_lenet_spec,
    "resnet10": small_resnet_spec,
    "vgg11": small_vgg_spec,
}

BUILDERS = {
    "se": lambda spec, seed: single_exit_bayesnet(spec, seed=seed),
    "flat_mcd": lambda spec, seed: single_exit_bayesnet(
        spec, num_mcd_layers=2, seed=seed
    ),
    "multi_exit": lambda spec, seed: MultiExitBayesNet(
        spec,
        MultiExitConfig(num_exits=spec.num_blocks, mcd_layers_per_exit=1, seed=seed),
    ),
}


def _param_bytes(model) -> list[bytes]:
    return [np.ascontiguousarray(p.value).tobytes() for p in model.parameters()]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    arch=st.sampled_from(sorted(SPECS)),
    builds=st.lists(
        st.tuples(st.sampled_from(sorted(BUILDERS)), st.integers(0, 3)),
        min_size=2,
        max_size=5,
    ),
)
def test_builds_from_one_spec_share_nothing(arch, builds):
    shared = SPECS[arch]()
    models = [BUILDERS[kind](shared, seed) for kind, seed in builds]
    for model, (kind, seed) in zip(models, builds):
        alone = BUILDERS[kind](SPECS[arch](), seed)
        assert _param_bytes(model) == _param_bytes(alone), (kind, seed)
    owners: dict[int, int] = {}
    for index, model in enumerate(models):
        for param in model.parameters():
            assert owners.setdefault(id(param), index) == index, (
                f"models {owners[id(param)]} and {index} share {param.name}"
            )


def test_a_second_model_leaves_the_first_unchanged(rng):
    """The reproduction of the old aliasing: seed 0, then seed 1, one spec."""
    spec = small_lenet_spec()
    config = MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    first = MultiExitBayesNet(spec, config)
    twin = MultiExitBayesNet(small_lenet_spec(), config)
    before = _param_bytes(first)
    MultiExitBayesNet(spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=1))
    assert _param_bytes(first) == before
    x = rng.normal(size=(4, 1, 12, 12))
    np.testing.assert_array_equal(
        first.predict_mc(x, 4).sample_probs, twin.predict_mc(x, 4).sample_probs
    )


@pytest.mark.parametrize("arch", sorted(SPECS))
def test_a_pickled_spec_builds_every_kind(arch):
    spec = SPECS[arch]()
    clone = pickle.loads(pickle.dumps(spec))
    for kind, build in BUILDERS.items():
        assert _param_bytes(build(clone, 0)) == _param_bytes(build(spec, 0)), kind
