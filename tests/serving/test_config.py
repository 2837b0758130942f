"""ServingConfig / BatcherConfig: validation, wire round-trip, engine surface."""

from __future__ import annotations

import json

import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import (
    BatcherConfig,
    FaultPlan,
    FleetConfig,
    ServingConfig,
    ServingEngine,
)


def _model():
    spec = lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )


# --------------------------------------------------------------------- #
# eager validation
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        ({"max_batch_size": 0}, "max_batch_size must be positive"),
        ({"max_batch_latency": 0}, "max_batch_latency must be positive"),
        ({"max_queue_size": -1}, "max_queue_size must be positive"),
        ({"admission_timeout": 0.0}, "admission_timeout must be positive"),
        # NaN made the batcher's flush deadline NaN: the loop spun forever
        ({"max_batch_latency": float("nan")}, "max_batch_latency must be positive"),
        # Infinity never dispatched a lone request
        ({"max_batch_latency": float("inf")}, "max_batch_latency must be positive"),
        ({"admission_timeout": float("nan")}, "admission_timeout must be positive"),
        ({"max_batch_size": 2.5}, "max_batch_size must be an int"),
        ({"max_batch_size": True}, "max_batch_size must be an int"),
        ({"max_queue_size": 8.0}, "max_queue_size must be an int"),
    ],
)
def test_batcher_config_validates_eagerly(kwargs, match):
    with pytest.raises(ValueError, match=match):
        BatcherConfig(**kwargs)


@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        ({"num_samples": 0}, "num_samples must be positive"),
        ({"early_exit_threshold": 1.0}, "early_exit_threshold must be in"),
        ({"workers": 0}, "workers must be positive"),
        ({"worker_backend": "gpu"}, "worker_backend must be one of"),
        ({"worker_transport": "smoke"}, "worker_transport must be"),
        (
            {"fault_plan": FaultPlan([(1, "mid_compute")])},
            "requires worker_backend",
        ),
        (
            {"workers": 4, "fleet": FleetConfig(min_workers=8)},
            "fleet bounds must satisfy",
        ),
        # a fractional sample count failed every request at slicing
        ({"num_samples": 2.5}, "num_samples must be an int"),
        ({"num_samples": True}, "num_samples must be an int"),
        ({"workers": 2.0}, "workers must be an int"),
        ({"workers": True}, "workers must be an int"),
    ],
)
def test_serving_config_validates_eagerly(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ServingConfig(**kwargs)


@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        # a zero or negative interval spun the supervisor loop while idle
        ({"health_interval": 0}, "health_interval must be positive"),
        ({"health_interval": -0.5}, "health_interval must be positive"),
        ({"health_interval": float("nan")}, "health_interval must be positive"),
        ({"respawn_wait": float("inf")}, "respawn_wait must be positive"),
        ({"scale_interval": 0.0}, "scale_interval must be positive"),
        ({"min_workers": 1.5}, "min_workers must be an int"),
        ({"scale_down_idle_evals": True}, "scale_down_idle_evals must be an int"),
    ],
)
def test_fleet_config_validates_eagerly(kwargs, match):
    with pytest.raises(ValueError, match=match):
        FleetConfig(**kwargs)


def test_serving_config_rejects_non_batcher_config():
    with pytest.raises(TypeError, match="batcher must be a BatcherConfig"):
        ServingConfig(batcher={"max_batch_size": 4})


def test_configs_are_frozen():
    config = ServingConfig()
    with pytest.raises(AttributeError):
        config.workers = 4
    with pytest.raises(AttributeError):
        config.batcher.max_batch_size = 1


# --------------------------------------------------------------------- #
# from_kwargs: the flat namespace splits into the nested one
# --------------------------------------------------------------------- #
def test_from_kwargs_splits_flat_namespace():
    config = ServingConfig.from_kwargs(
        num_samples=8, workers=2, max_batch_size=4, reject_on_full=True
    )
    assert config.num_samples == 8
    assert config.workers == 2
    assert config.batcher == BatcherConfig(max_batch_size=4, reject_on_full=True)


def test_from_kwargs_rejects_unknown_and_mixed():
    with pytest.raises(TypeError, match="unknown serving configuration fields"):
        ServingConfig.from_kwargs(batch_size=4)
    with pytest.raises(TypeError, match="not both"):
        ServingConfig.from_kwargs(batcher=BatcherConfig(), max_batch_size=4)


# --------------------------------------------------------------------- #
# wire round-trip
# --------------------------------------------------------------------- #
def test_to_dict_round_trips_through_json():
    config = ServingConfig(
        num_samples=6,
        workers=2,
        worker_backend="process",
        worker_transport="pipe",
        batcher=BatcherConfig(max_batch_size=4, admission_timeout=2.0),
        fleet=FleetConfig(min_workers=1, max_workers=3, health_interval=0.1),
        fault_plan=FaultPlan([(3, "mid_compute"), (5, "post_response")]),
    )
    wire = json.loads(json.dumps(config.to_dict()))
    rebuilt = ServingConfig.from_dict(wire)
    assert rebuilt.batcher == config.batcher
    assert rebuilt.fleet == config.fleet
    assert [(s.seq, s.point) for s in rebuilt.fault_plan.pending] == [
        (3, "mid_compute"),
        (5, "post_response"),
    ]
    # a rebuilt plan is a *fresh* consume-once instance, never shared state
    assert rebuilt.fault_plan is not config.fault_plan
    # defaults survive a minimal dict too
    assert ServingConfig.from_dict({"workers": 2}).batcher == BatcherConfig()


@pytest.mark.parametrize(
    ("wire", "match"),
    [
        ('{"batcher": {"max_batch_latency": NaN}}', "max_batch_latency must be"),
        ('{"batcher": {"max_batch_latency": Infinity}}', "max_batch_latency must"),
        ('{"num_samples": 2.5}', "num_samples must be an int"),
        ('{"fleet": {"health_interval": 0}}', "health_interval must be positive"),
    ],
)
def test_from_dict_rejects_what_json_lets_through(wire, match):
    with pytest.raises(ValueError, match=match):
        ServingConfig.from_dict(json.loads(wire))


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown ServingConfig fields"):
        ServingConfig.from_dict({"wokers": 2})
    with pytest.raises(ValueError, match="unknown BatcherConfig fields"):
        BatcherConfig.from_dict({"batch": 4})


# --------------------------------------------------------------------- #
# the engine's config surface
# --------------------------------------------------------------------- #
def test_engine_accepts_config_object():
    config = ServingConfig(num_samples=4, batcher=BatcherConfig(max_batch_size=2))
    engine = ServingEngine(_model(), config)
    assert engine.config is config
    assert engine.num_samples == 4  # compat attributes still exposed

    with pytest.raises(TypeError, match="config must be a ServingConfig"):
        ServingEngine(_model(), {"num_samples": 4})


def test_engine_rejects_flat_kwargs():
    # the flat keyword surface is gone from the engine; from_kwargs is the
    # one way to spell a config flat
    with pytest.raises(TypeError, match="num_samples"):
        ServingEngine(_model(), num_samples=4, max_batch_size=2)
    with pytest.raises(TypeError, match="num_samples"):
        _model().serving_engine(num_samples=4)
    engine = ServingEngine(
        _model(), ServingConfig.from_kwargs(num_samples=4, max_batch_size=2)
    )
    assert engine.config == ServingConfig(
        num_samples=4, batcher=BatcherConfig(max_batch_size=2)
    )
