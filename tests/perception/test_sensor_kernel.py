"""Vectorized sensor kernel vs the scalar per-pair reference.

``Sensor.observe`` runs range and occlusion as one pairwise slab pass;
this suite pins it bit-for-bit against the scalar loop it replaced
(``in_range`` + ``is_occluded`` per candidate from
``tests/oracles/perception.py``, obstacles restricted to the in-range
set), and pins the shared-``WorldArrays`` fleet path
against the per-call gather.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perception.sensor import Sensor, WorldArrays
from repro.sim.road import Road
from repro.sim.vehicle import VehicleState
from tests.oracles.perception import in_range, is_occluded

ROAD = Road(length=600.0)


def scalar_observe(sensor, ego_id, ego, world, road):
    """The pre-vectorization observe: per-candidate scalar tests."""
    candidates = {vid: state for vid, state in world.items()
                  if vid != ego_id and in_range(sensor, ego, state, road)}
    observed = {}
    for vid, state in candidates.items():
        if not is_occluded(sensor, ego, state, candidates, road,
                           target_id=vid):
            observed[vid] = state
    return observed


def random_world(rng, count):
    """Dense random traffic; quantized lon makes exact overlaps likely."""
    world = {}
    for index in range(count):
        world[f"v{index}"] = VehicleState(
            lat=int(rng.integers(1, ROAD.num_lanes + 1)),
            lon=float(rng.integers(0, 80)) * 2.5,
            v=float(rng.uniform(0.0, 25.0)),
        )
    return world


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(0, 40))
def test_observe_matches_scalar_reference(seed, count):
    rng = np.random.default_rng(seed)
    world = random_world(rng, count)
    sensor = Sensor()
    ego_id = "v0" if count else "ego"
    ego = world.get(ego_id, VehicleState(lat=2, lon=100.0, v=20.0))
    got = sensor.observe(ego_id, ego, world, ROAD)
    want = scalar_observe(sensor, ego_id, ego, world, ROAD)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 40))
def test_world_arrays_path_is_identical(seed, count):
    """The fleet's shared pre-gathered arrays change nothing."""
    rng = np.random.default_rng(seed)
    world = random_world(rng, count)
    sensor = Sensor()
    arrays = WorldArrays.from_states(world, ROAD)
    ego_id = f"v{int(rng.integers(0, count))}"
    ego = world[ego_id]
    assert (sensor.observe(ego_id, ego, arrays, ROAD)
            == sensor.observe(ego_id, ego, world, ROAD))


def test_world_arrays_layout():
    world = {"a": VehicleState(lat=1, lon=10.0, v=5.0),
             "b": VehicleState(lat=3, lon=40.0, v=8.0)}
    arrays = WorldArrays.from_states(world, ROAD)
    assert arrays.ids == ["a", "b"]
    assert arrays.position == {"a": 0, "b": 1}
    np.testing.assert_array_equal(arrays.lon, [10.0, 40.0])
    np.testing.assert_array_equal(arrays.lat_m,
                                  [1 * ROAD.lane_width, 3 * ROAD.lane_width])


def test_occluder_hides_target_behind_it():
    """Directly-behind blocker: classic shadow, both paths agree."""
    ego = VehicleState(lat=2, lon=0.0, v=20.0)
    world = {
        "ego": ego,
        "blocker": VehicleState(lat=2, lon=20.0, v=20.0),
        "hidden": VehicleState(lat=2, lon=40.0, v=20.0),
        "visible": VehicleState(lat=3, lon=30.0, v=20.0),
    }
    sensor = Sensor()
    seen = sensor.observe("ego", ego, world, ROAD)
    assert set(seen) == {"blocker", "visible"}
    assert seen == scalar_observe(sensor, "ego", ego, world, ROAD)


def test_out_of_range_is_dropped():
    ego = VehicleState(lat=2, lon=0.0, v=20.0)
    sensor = Sensor(detection_range=100.0)
    world = {
        "ego": ego,
        "near": VehicleState(lat=2, lon=99.0, v=20.0),
        "far": VehicleState(lat=2, lon=250.0, v=20.0),
    }
    assert set(sensor.observe("ego", ego, world, ROAD)) == {"near"}


def test_ego_footprint_never_occludes():
    """An obstacle exactly at the ego center is treated as the ego."""
    ego = VehicleState(lat=2, lon=50.0, v=20.0)
    world = {
        "twin": VehicleState(lat=2, lon=50.0, v=20.0),  # ego's own row
        "ahead": VehicleState(lat=2, lon=70.0, v=20.0),
    }
    sensor = Sensor()
    seen = sensor.observe("ego", ego, world, ROAD)
    assert "ahead" in seen
    assert seen == scalar_observe(sensor, "ego", ego, world, ROAD)


def test_empty_world_and_lone_ego():
    ego = VehicleState(lat=1, lon=10.0, v=5.0)
    sensor = Sensor()
    assert sensor.observe("ego", ego, {}, ROAD) == {}
    assert sensor.observe("ego", ego, {"ego": ego}, ROAD) == {}
    arrays = WorldArrays.from_states({"ego": ego}, ROAD)
    assert sensor.observe("ego", ego, arrays, ROAD) == {}


@pytest.mark.parametrize("noise", [0.5, 2.0])
def test_noisy_measurements_identical_across_paths(noise):
    """Measurement noise draws depend only on the visible set/order."""
    rng = np.random.default_rng(7)
    world = random_world(rng, 20)
    ego_id, ego = "v3", world["v3"]
    plain = Sensor(position_noise=noise, seed=42)
    shared = Sensor(position_noise=noise, seed=42)
    arrays = WorldArrays.from_states(world, ROAD)
    assert (plain.observe(ego_id, ego, world, ROAD)
            == shared.observe(ego_id, ego, arrays, ROAD))
