"""Regression tests for the weights-version cache-invalidation contract and
the early-exit activation-cache reuse.

The ROADMAP named two holes after PR 1:

* code writing ``param.value[...]`` directly bypassed
  ``Network.weights_version`` and could serve stale cached activations —
  closed by the ``Parameter``-level version counter (``Parameter.assign`` /
  ``bump_version``) that ``weights_version`` now aggregates;
* ``InferenceEngine.early_exit_predict`` recomputed backbone segments even
  when the engine had the batch's activations memoised — closed by the
  cache-reuse fast path.

A later hole: a cache lookup that was never followed by a store left its
miss key behind, and the next store trusted it for any array with the same
``id()`` — storing one batch's activations under another batch's bytes.
The cache now matches an input by its bytes and keeps no miss key; a
hypothesis property pins it against an LRU reference keyed on
``(token, shape, dtype, bytes)``.
"""

from __future__ import annotations

from collections import OrderedDict

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet
from repro.inference import engine as engine_module
from repro.nn import SGD
from repro.nn.architectures import lenet5_spec
from repro.nn.layers.base import Parameter


def _small_spec():
    return lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)


def _model(mcd=1):
    return MultiExitBayesNet(
        _small_spec(), MultiExitConfig(num_exits=2, mcd_layers_per_exit=mcd, seed=0)
    )


X = np.random.default_rng(11).normal(size=(8, 1, 12, 12))


# --------------------------------------------------------------------------- #
# Parameter-level versioning
# --------------------------------------------------------------------------- #
def test_parameter_assign_bumps_version_and_keeps_storage():
    p = Parameter(np.zeros((2, 3)), name="w")
    storage = p.value
    assert p.version == 0
    p.assign(np.ones((2, 3)))
    assert p.version == 1
    assert p.value is storage  # in-place: optimizer/engine references stay valid
    np.testing.assert_array_equal(p.value, 1.0)
    p.assign(5.0)  # broadcasting assignment
    assert p.version == 2
    np.testing.assert_array_equal(p.value, 5.0)


def test_network_weights_version_reflects_parameter_mutations():
    net = single_exit_bayesnet(_small_spec(), num_mcd_layers=1, seed=0)
    v0 = net.weights_version
    param = next(net.parameters())
    param.assign(param.value * 2.0)
    assert net.weights_version > v0
    v1 = net.weights_version
    param.value[...] = 0.0  # raw write: invisible on its own...
    assert net.weights_version == v1
    param.bump_version()  # ...until recorded
    assert net.weights_version > v1


def test_optimizer_step_bumps_weights_version():
    net = single_exit_bayesnet(_small_spec(), num_mcd_layers=1, seed=0)
    v0 = net.weights_version
    opt = SGD(net.parameters(), lr=0.01)
    for p in opt.parameters:
        p.grad[...] = 1.0
    opt.step()
    assert net.weights_version > v0


def test_direct_param_assign_invalidates_engine_cache():
    """The ROADMAP staleness hole: mutate weights via the documented setter
    with *no* manual invalidation and the engine must not serve stale
    activations."""
    model = _model(mcd=0)  # deterministic so staleness would be observable
    engine = model.engine
    before = engine.predict_mc(X, num_samples=2).mean_probs
    before_again = engine.predict_mc(X, num_samples=2).mean_probs
    np.testing.assert_array_equal(before, before_again)  # cache hit, stable

    for param in model.backbone.parameters():
        param.assign(param.value + 0.1)

    after = engine.predict_mc(X, num_samples=2).mean_probs
    assert not np.allclose(before, after), (
        "engine served stale cached activations after Parameter.assign"
    )


def test_set_weights_still_invalidates():
    model = _model(mcd=0)
    engine = model.engine
    before = engine.predict_mc(X, num_samples=2).mean_probs
    weights = model.backbone.get_weights()
    model.backbone.set_weights([w + 0.05 for w in weights])
    after = engine.predict_mc(X, num_samples=2).mean_probs
    assert not np.allclose(before, after)


# --------------------------------------------------------------------------- #
# early-exit activation-cache reuse
# --------------------------------------------------------------------------- #
def test_early_exit_reuses_cached_backbone_activations():
    model = _model(mcd=0)
    engine = model.engine
    cold = engine.early_exit_predict(X, 0.5)

    engine.backbone_activations(X)  # memoise this batch
    calls = 0
    original = engine._plan.forward_range

    def counting_forward_range(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    engine._plan.forward_range = counting_forward_range
    try:
        warm = engine.early_exit_predict(X, 0.5)
    finally:
        engine._plan.forward_range = original

    assert calls == 0, "early_exit_predict recomputed memoised backbone segments"
    np.testing.assert_allclose(warm.probs, cold.probs, atol=1e-9)
    np.testing.assert_array_equal(warm.exit_indices, cold.exit_indices)
    np.testing.assert_allclose(warm.exit_distribution, cold.exit_distribution)


def test_early_exit_cache_reuse_respects_weight_changes():
    model = _model(mcd=0)
    engine = model.engine
    engine.backbone_activations(X)  # memoise under the current weights
    before = engine.early_exit_predict(X, 0.5)
    for param in model.backbone.parameters():
        param.assign(param.value + 0.1)
    after = engine.early_exit_predict(X, 0.5)
    assert not np.allclose(before.probs, after.probs), (
        "early-exit served activations cached under stale weights"
    )


def test_early_exit_cold_path_unchanged():
    """Without a cache hit the streaming active-set path still runs (and
    matches the legacy eager path, which is pinned elsewhere)."""
    model = _model(mcd=0)
    engine = model.engine
    res = engine.early_exit_predict(X, 0.7)
    assert res.probs.shape == (X.shape[0], 5)
    assert res.exit_distribution.sum() == pytest.approx(1.0)


def test_a_strided_miss_between_lookup_and_store_caches_nothing_under_first_bytes():
    model = _model()
    engine = model.engine
    a = np.ascontiguousarray(X)
    other = np.random.default_rng(5).normal(size=(8, 1, 12, 24))

    engine.early_exit_predict(a, 0.5)  # a contiguous miss, and no store
    model.predict_mc(other[:, :, :, ::2], 2)  # a strided miss: uncacheable
    hits = engine.cache_stats()[0]

    got = engine.backbone_activations(a.copy())
    assert engine.cache_stats()[0] == hits, "the strided batch was cached as `a`"
    want = _model().engine.backbone_activations(a.copy())
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


# --------------------------------------------------------------------------- #
# the cache against an LRU reference keyed on (token, shape, dtype, bytes)
# --------------------------------------------------------------------------- #
class _ReferenceLRU:
    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = self.misses = 0

    def get(self, x, token):
        if self.maxsize <= 0:
            return None
        key = (token, x.shape, x.dtype.str, x.tobytes())
        if not x.flags.c_contiguous or key not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key]

    def put(self, x, token, value) -> None:
        if self.maxsize <= 0 or not x.flags.c_contiguous:
            return
        for key in [k for k in self.entries if k[0] != token]:
            del self.entries[key]
        key = (token, x.shape, x.dtype.str, x.tobytes())
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)


def _cache_pool() -> list[np.ndarray]:
    """Arrays that agree in values, bytes, shape or dtype, but never in all."""
    plus = np.arange(8.0).reshape(2, 4)  # plus[0, 0] is +0.0
    minus = plus.copy()
    minus[0, 0] = -0.0  # equal values, other bytes
    nan = np.full((2, 4), np.nan)
    nan_other = nan.copy()
    nan_other.view(np.uint64)[0, 0] += 1  # another NaN payload
    strided = np.arange(16.0).reshape(2, 8)[:, ::2]  # never cacheable
    return [
        plus,
        plus.copy(),  # the same bytes in another array
        minus,
        nan,
        nan_other,
        plus.reshape(4, 2).copy(),  # the same bytes in another shape
        plus.view(np.int64),  # ... and in another dtype
        strided,
        np.ascontiguousarray(strided),
    ]


# (op, pool index); a bump ignores its index, and draws rarer than a lookup
_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "get", "get", "put", "put", "negate", "bump"]),
        st.integers(0, len(_cache_pool()) - 1),
    ),
    min_size=2,
    max_size=40,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(maxsize=st.integers(0, 3), ops=_CACHE_OPS)
def test_the_cache_matches_an_lru_reference_keyed_on_bytes(maxsize, ops):
    pool = _cache_pool()
    cache = engine_module._ActivationCache(maxsize)
    reference = _ReferenceLRU(maxsize)
    token = 0
    for op, i in ops:
        if op == "get":
            assert cache.get(pool[i], token) is reference.get(pool[i], token)
        elif op == "put":
            value = object()
            cache.put(pool[i], token, value)
            reference.put(pool[i], token, value)
        elif op == "bump":
            token += 1
        else:  # the caller mutates an array (a stored one, perhaps) in place
            np.negative(pool[i], out=pool[i])
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
