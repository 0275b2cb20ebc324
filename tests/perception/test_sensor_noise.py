"""Tests for sensor measurement noise (NGSIM-like detection error)."""

import hashlib
import json

import numpy as np
import pytest

from repro.decision.environment import DrivingEnv
from repro.decision.pamdp import LaneBehavior, ParameterizedAction
from repro.perception import Sensor
from repro.perception.module import EnhancedPerception
from repro.sim import Road, VehicleState, build_episode


@pytest.fixture
def road():
    return Road(length=1000.0)


def world(road):
    return {
        "ego": VehicleState(3, 500.0, 15.0),
        "a": VehicleState(3, 530.0, 12.0),
        "b": VehicleState(2, 520.0, 18.0),
    }


def test_noise_free_sensor_returns_exact_states(road):
    sensor = Sensor()
    observed = sensor.observe("ego", world(road)["ego"], world(road), road)
    assert observed["a"] == VehicleState(3, 530.0, 12.0)


def test_noise_perturbs_positions_and_speeds(road):
    sensor = Sensor(position_noise=0.5, velocity_noise=0.5, seed=3)
    observed = sensor.observe("ego", world(road)["ego"], world(road), road)
    assert observed["a"].lon != 530.0
    assert observed["a"].v != 12.0
    assert observed["a"].lat == 3  # lane detection stays exact


def test_noise_is_seeded_and_reproducible(road):
    first = Sensor(position_noise=0.5, velocity_noise=0.5, seed=9)
    second = Sensor(position_noise=0.5, velocity_noise=0.5, seed=9)
    a = first.observe("ego", world(road)["ego"], world(road), road)
    b = second.observe("ego", world(road)["ego"], world(road), road)
    assert a["a"].lon == b["a"].lon
    assert a["b"].v == b["b"].v


def test_noise_magnitude_statistics(road):
    sensor = Sensor(position_noise=0.3, velocity_noise=0.0, seed=1)
    deviations = []
    for _ in range(300):
        observed = sensor.observe("ego", world(road)["ego"], world(road), road)
        deviations.append(observed["a"].lon - 530.0)
    deviations = np.array(deviations)
    assert abs(deviations.mean()) < 0.1
    assert 0.2 < deviations.std() < 0.4


def test_speed_never_negative(road):
    sensor = Sensor(velocity_noise=50.0, seed=2)
    slow_world = {"ego": VehicleState(3, 500.0, 15.0),
                  "slow": VehicleState(3, 520.0, 0.5)}
    for _ in range(50):
        observed = sensor.observe("ego", slow_world["ego"], slow_world, road)
        assert observed["slow"].v >= 0.0


class RecordingSensor(Sensor):
    """A noisy sensor that keeps every frame it reports, in report order."""

    def __post_init__(self):
        super().__post_init__()
        self.frames = []

    def observe(self, *args, **kwargs):
        observed = super().observe(*args, **kwargs)
        self.frames.append(observed)
        return observed


#: ``(frames, sha256)`` of every noisy measurement; both paths below
#: observe the same episode, so they share it.
NOISY_FINGERPRINT = (
    20, "0cc0f2a7cb683dc132aeb6b58b1908f314ecbe9397e4bbe149fb328703f6a626")


def noisy_frames_fingerprint(frames):
    rows = [[(vid, state.lat, state.lon.hex(), state.v.hex())
             for vid, state in frame.items()] for frame in frames]
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("path", ["perceive", "env"])
def test_noise_draws_follow_world_insertion_order(path):
    """Each measurement-noise draw goes to the vehicle it went to before.

    The sensor draws noise per visible candidate in world row order, so
    any change to the order in which the world presents its vehicles
    reassigns the draws; the fingerprint pins that assignment on a short
    seeded episode, through a direct ``perceive`` call and through the
    environment step.
    """
    sensor = RecordingSensor(position_noise=0.5, velocity_noise=0.5, seed=3)
    perception = EnhancedPerception(predictor=None, sensor=sensor)
    road = Road(length=600.0)
    if path == "perceive":
        engine, _ = build_episode(4, road=road, density_per_km=160.0)
        for _ in range(20):
            perception.perceive(engine, "av")
            engine.set_maneuver("av", 0, 1.0)
            engine.step()
    else:
        env = DrivingEnv(perception, road=road, density_per_km=160.0,
                         max_steps=20)
        env.reset(4)
        while not env.done():
            env.step(ParameterizedAction(LaneBehavior.KEEP, 1.0))
    assert sum(len(frame) for frame in sensor.frames) > 100
    assert noisy_frames_fingerprint(sensor.frames) == NOISY_FINGERPRINT
