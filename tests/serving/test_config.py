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
        # a fractional sample count failed every request at slicing
        ({"num_samples": 2.5}, "num_samples must be an int"),
        ({"num_samples": True}, "num_samples must be an int"),
        ({"workers": 2.0}, "workers must be an int"),
        ({"workers": True}, "workers must be an int"),
        # the ring is the only transport: the pickle pipe is gone
        ({"worker_transport": "pipe"}, "worker_transport must be 'ring'"),
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
# wire round-trip
# --------------------------------------------------------------------- #
def test_to_dict_round_trips_through_json():
    config = ServingConfig(
        num_samples=6,
        workers=2,
        worker_backend="process",
        batcher=BatcherConfig(max_batch_size=4, admission_timeout=2.0),
        fleet=FleetConfig(health_interval=0.1, respawn_wait=5.0),
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
        # a config stored when the pickle pipe still existed fails on load
        ('{"worker_transport": "pipe"}', "worker_transport must be 'ring'"),
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


@pytest.mark.parametrize(
    ("knob", "value"),
    [
        ("min_workers", 1),
        ("max_workers", 4),
        ("scale_interval", 0.5),
        ("scale_up_backlog", 4.0),
        ("scale_up_on_shed", False),
        ("scale_down_idle_evals", 3),
    ],
)
def test_from_dict_rejects_a_fleet_that_asks_to_scale(knob, value):
    """The fleet stays at ``workers``: a stored scaling knob fails loudly."""
    match = rf"unknown FleetConfig fields: \['{knob}'\]"
    with pytest.raises(ValueError, match=match):
        ServingConfig.from_dict({"workers": 2, "fleet": {knob: value}})


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
    # a config is spelled one way: ServingConfig(..., batcher=BatcherConfig(...))
    with pytest.raises(TypeError, match="num_samples"):
        ServingEngine(_model(), num_samples=4, max_batch_size=2)
    with pytest.raises(TypeError, match="num_samples"):
        _model().serving_engine(num_samples=4)
    with pytest.raises(TypeError, match="max_batch_size"):
        ServingConfig(num_samples=4, max_batch_size=2)
