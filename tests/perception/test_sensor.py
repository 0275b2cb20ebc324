"""Tests for the range + occlusion sensor model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perception import Sensor
from repro.sim import Road, VehicleState
from tests.oracles.perception import (in_range, is_occluded,
                                      segment_intersects_rectangle)


@pytest.fixture
def road():
    return Road(length=1000.0)


@pytest.fixture
def sensor():
    return Sensor(detection_range=100.0)


def state(lane, lon, v=10.0):
    return VehicleState(lat=lane, lon=lon, v=v)


def test_in_range_boundary(sensor, road):
    ego = state(3, 500.0)
    assert in_range(sensor, ego, state(3, 599.0), road)
    assert not in_range(sensor, ego, state(3, 601.0), road)
    assert in_range(sensor, ego, state(3, 401.0), road)


def test_in_range_uses_euclidean_distance(sensor, road):
    ego = state(1, 500.0)
    # 99 m ahead but 5 lanes over: sqrt(99^2 + 16^2) > 100.
    assert not in_range(sensor, ego, state(6, 599.0), road)


def test_segment_rectangle_hit_and_miss():
    assert segment_intersects_rectangle((0, 0), (10, 0), (5, 0), 1.0, 1.0)
    assert not segment_intersects_rectangle((0, 0), (10, 0), (5, 3.0), 1.0, 1.0)
    # Vertical segment through a box.
    assert segment_intersects_rectangle((5, -5), (5, 5), (5, 0), 1.0, 1.0)
    # Degenerate horizontal slab miss.
    assert not segment_intersects_rectangle((0, 5), (10, 5), (5, 0), 1.0, 1.0)


def test_same_lane_occlusion(sensor, road):
    """A leader hides the leader-of-leader in the same lane."""
    ego = state(3, 500.0)
    blocker = state(3, 520.0)
    hidden = state(3, 540.0)
    world = {"blocker": blocker, "hidden": hidden}
    assert is_occluded(sensor, ego, hidden, world, road, target_id="hidden")
    assert not is_occluded(sensor, ego, blocker, world, road, target_id="blocker")


def test_adjacent_lane_not_occluded_by_same_lane_leader(sensor, road):
    ego = state(3, 500.0)
    blocker = state(3, 520.0)
    side = state(2, 540.0)
    world = {"blocker": blocker, "side": side}
    assert not is_occluded(sensor, ego, side, world, road, target_id="side")


def test_diagonal_occlusion(sensor, road):
    """Fig. 4 geometry: a front-left vehicle shadows the cell beyond it."""
    ego = state(3, 500.0)
    blocker = state(2, 520.0)
    hidden = state(1, 540.5)  # roughly on the extended ego->blocker ray
    world = {"blocker": blocker, "hidden": hidden}
    assert is_occluded(sensor, ego, hidden, world, road, target_id="hidden")


def test_observe_filters_range_occlusion_and_self(sensor, road):
    ego = state(3, 500.0)
    world = {
        "ego": ego,
        "visible": state(3, 520.0),
        "hidden": state(3, 545.0),
        "far": state(3, 700.0),
        "side": state(2, 530.0),
    }
    observed = sensor.observe("ego", ego, world, road)
    assert set(observed) == {"visible", "side"}


def test_observe_empty_world(sensor, road):
    ego = state(1, 0.0)
    assert sensor.observe("ego", ego, {"ego": ego}, road) == {}


@given(lon=st.floats(-90.0, 90.0), lane=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_lone_vehicle_in_range_always_observed(lon, lane):
    """With no obstacles there is nothing to occlude."""
    road = Road(length=10000.0)
    sensor = Sensor(detection_range=100.0)
    ego = state(3, 5000.0)
    other = state(lane, 5000.0 + lon)
    if lon == 0.0 and lane == 3:
        return
    world = {"ego": ego, "other": other}
    observed = sensor.observe("ego", ego, world, road)
    expected = in_range(sensor, ego, other, road)
    assert ("other" in observed) == expected


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_occlusion_monotone_property(seed):
    """Adding an obstacle can only shrink the observed set."""
    rng = np.random.default_rng(seed)
    road = Road(length=10000.0)
    sensor = Sensor()
    ego = state(3, 5000.0)
    vehicles = {
        f"v{i}": state(int(rng.integers(1, 7)), 5000.0 + float(rng.uniform(-90, 90)))
        for i in range(6)
    }
    base = sensor.observe("ego", ego, dict(vehicles), road)
    extra = dict(vehicles)
    extra["extra"] = state(3, 5000.0 + float(rng.uniform(5, 90)))
    wider = sensor.observe("ego", ego, extra, road)
    assert set(base) - {"extra"} >= set(wider) - {"extra"} - (set(wider) - set(base))
    # every vehicle observed with the extra obstacle was observed without it
    assert all(vid in base or vid == "extra" for vid in wider)
