"""Shared-memory parameter storage: arena layout, pickling, release.

These tests exercise :mod:`repro.nn.shm` and the :class:`Parameter`
attach/detach hooks *within one process* (cross-process behaviour is
covered end-to-end by the process-pool serving tests): storage rebinding
preserves values and write-through, shared parameters pickle as cheap
descriptors that re-attach to the live segment, version slots round-trip,
and ``release`` returns the model to fully private, usable storage.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.nn import Network
from repro.nn.layers import Dense
from repro.nn.layers.base import Parameter
from repro.nn.shm import SharedParameterArena


def _network() -> Network:
    net = Network([Dense(8), Dense(4)])
    net.build((6,), seed=0)
    return net


def test_arena_rebinds_values_preserving_contents():
    net = _network()
    before = [p.value.copy() for p in net.parameters()]
    params = list(net.parameters())
    arena = SharedParameterArena.create(params)
    try:
        for p, w in zip(params, before):
            assert p._shm_spec is not None
            np.testing.assert_array_equal(p.value, w)
        # a write through the parameter is visible through a raw attach of
        # the same segment (i.e. the storage genuinely moved)
        spec = params[0]._shm_spec
        seg = shared_memory.SharedMemory(name=spec[0])
        try:
            view = np.ndarray(spec[2], dtype=np.float64, buffer=seg.buf, offset=spec[1])
            params[0].value[...] = 7.25
            assert float(view.ravel()[0]) == 7.25
        finally:
            seg.close()
    finally:
        arena.release()


def test_shared_parameter_pickles_as_descriptor_and_realiases():
    net = _network()
    params = list(net.parameters())
    heavy = len(pickle.dumps(params[0]))
    arena = SharedParameterArena.create(params)
    try:
        light = len(pickle.dumps(params[0]))
        assert light < heavy / 2, (light, heavy)

        clone = pickle.loads(pickle.dumps(params[0]))
        np.testing.assert_array_equal(clone.value, params[0].value)
        # descriptor unpickling aliases the same storage, both directions
        params[0].value[...] = 1.5
        assert float(clone.value.ravel()[0]) == 1.5
        clone.value[...] = 2.5
        assert float(params[0].value.ravel()[0]) == 2.5
        assert clone.grad.shape == clone.value.shape  # grads rebuilt privately
    finally:
        arena.release()


def test_whole_model_pickle_is_light_when_shared():
    net = _network()
    heavy = len(pickle.dumps(net))
    arena = SharedParameterArena.create(list(net.parameters()))
    try:
        assert len(pickle.dumps(net)) < heavy
        clone = pickle.loads(pickle.dumps(net))
        x = np.random.default_rng(0).normal(size=(3, 6))
        np.testing.assert_array_equal(clone.forward(x), net.forward(x))
    finally:
        arena.release()


def test_version_slots_publish_and_refresh():
    net = _network()
    params = list(net.parameters())
    arena = SharedParameterArena.create(params)
    try:
        clone_params = [pickle.loads(pickle.dumps(p)) for p in params]
        attached = SharedParameterArena.attached(arena.manifest, clone_params)
        assert attached.refresh() is False  # in sync at creation

        params[0].assign(params[0].value + 1.0)
        params[1].bump_version()
        arena.publish()
        assert attached.refresh() is True
        assert clone_params[0].version == params[0].version
        assert clone_params[1].version == params[1].version
        assert attached.refresh() is False  # idempotent once synced
    finally:
        arena.release()


def test_release_restores_private_usable_storage():
    net = _network()
    before = [p.value.copy() for p in net.parameters()]
    arena = SharedParameterArena.create(list(net.parameters()))
    name = arena.manifest.segment_name
    arena.release()
    arena.release()  # idempotent

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    for p, w in zip(net.parameters(), before):
        assert p._shm_spec is None
        np.testing.assert_array_equal(p.value, w)
    # the model trains/mutates like any private model afterwards
    for p in net.parameters():
        p.assign(p.value * 2.0)
    x = np.random.default_rng(1).normal(size=(2, 6))
    assert net.forward(x).shape == (2, 4)


def test_arena_manifest_mismatch_rejected():
    net = _network()
    params = list(net.parameters())
    arena = SharedParameterArena.create(params)
    try:
        with pytest.raises(ValueError, match="parameters"):
            SharedParameterArena.attached(arena.manifest, params[:1])
        with pytest.raises(ValueError, match="zero parameters"):
            SharedParameterArena.create([])
    finally:
        arena.release()


def test_share_memory_shape_mismatch_rejected():
    p = Parameter(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        p.share_memory_(np.zeros((2, 2)), ("bogus", 0, (2, 2)))
    assert p._shm_spec is None
    p.unshare_()  # no-op on private parameters
