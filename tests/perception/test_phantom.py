"""Tests for phantom vehicle construction (paper Eqs. 4-6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perception import (AREA_COUNT, ObservationBuffer, TrackKind,
                              build_scene)
from repro.perception.phantom import NODE_COUNT
from repro.sim import Road, VehicleState

Z = 5
R = 100.0


@pytest.fixture
def road():
    return Road(length=100000.0)


def state(lane, lon, v=10.0):
    return VehicleState(lat=lane, lon=lon, v=v)


def make_buffer(observed: dict[str, VehicleState],
                ego: VehicleState) -> ObservationBuffer:
    """Buffer with z identical frames (stationary world for simplicity),
    the ego's own state included."""
    buffer = ObservationBuffer(history_steps=Z)
    for _ in range(Z):
        buffer.update({**observed, "ego": ego})
    return buffer


def ego_state(lane=3, lon=5000.0, v=10.0):
    return state(lane, lon, v)


def test_empty_world_builds_all_phantom_targets(road):
    scene = build_scene("ego", make_buffer({}, ego_state()), road, detection_range=R)
    assert scene.nodes.shape == (NODE_COUNT, Z, 3)
    for area in range(1, AREA_COUNT + 1):
        assert scene.node(area).kind is TrackKind.PHANTOM_RANGE
    assert scene.target_mask() == [0.0] * 6


def test_range_phantom_positions_follow_eq4(road):
    ego = ego_state(lane=3, lon=5000.0, v=10.0)
    scene = build_scene("ego", make_buffer({}, ego), road, detection_range=R)
    expect = {
        1: (2, 5000.0 + R), 2: (3, 5000.0 + R), 3: (4, 5000.0 + R),
        4: (2, 5000.0 - R), 5: (3, 5000.0 - R), 6: (4, 5000.0 - R),
    }
    for area, (lane, lon) in expect.items():
        current = scene.node(area)
        assert (current.lane, current.lon) == (lane, lon)
        assert current.v == pytest.approx(10.0)  # phantom inherits ego speed


def test_inherent_phantoms_on_leftmost_lane(road):
    ego = ego_state(lane=1, lon=5000.0)
    scene = build_scene("ego", make_buffer({}, ego), road, detection_range=R)
    for area in (1, 4):  # left areas become moving road boundaries (Eq. 5)
        target = scene.node(area)
        assert target.kind is TrackKind.PHANTOM_INHERENT
        assert target.lane == 0
        assert target.lon == pytest.approx(5000.0)
    for area in (2, 3, 5, 6):
        assert scene.node(area).kind is TrackKind.PHANTOM_RANGE


def test_inherent_phantoms_on_rightmost_lane(road):
    ego = ego_state(lane=road.num_lanes, lon=5000.0)
    scene = build_scene("ego", make_buffer({}, ego), road, detection_range=R)
    for area in (3, 6):
        target = scene.node(area)
        assert target.kind is TrackKind.PHANTOM_INHERENT
        assert target.lane == road.num_lanes + 1


def test_observed_targets_fill_their_areas(road):
    observed = {"front": state(3, 5020.0), "rear_left": state(2, 4980.0)}
    scene = build_scene("ego", make_buffer(observed, ego_state()), road,
                        detection_range=R)
    assert scene.node(2).vid == "front"
    assert scene.node(2).kind is TrackKind.OBSERVED
    assert scene.node(4).vid == "rear_left"
    assert scene.target_mask() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]
    # A tie: two vehicles on the same (lane, lon) in area 2, reported
    # out of id order.  Scene rows are in sorted-id order and the
    # neighbor kernel keeps the first row of a tie, so "twin_a" wins.
    twins = {"twin_b": state(3, 5020.0, 11.0), "twin_a": state(3, 5020.0, 9.0)}
    scene = build_scene("ego", make_buffer(twins, ego_state()), road,
                        detection_range=R)
    assert scene.node(2).vid == "twin_a"


def test_ego_occupies_mirror_slot(road):
    observed = {"front": state(3, 5020.0)}
    scene = build_scene("ego", make_buffer(observed, ego_state()), road,
                        detection_range=R)
    # C_2 is the front target; the ego must be its rear surrounding C_{2.5}.
    assert scene.node(2, 5).kind is TrackKind.EGO
    for area in range(1, AREA_COUNT + 1):
        mirror = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}[area]
        assert scene.node(area, mirror).kind is TrackKind.EGO


def test_phantom_target_surroundings_zero_padded(road):
    scene = build_scene("ego", make_buffer({}, ego_state()), road, detection_range=R)
    for area in range(1, AREA_COUNT + 1):
        mirror = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}[area]
        for sub_area in range(1, AREA_COUNT + 1):
            node = scene.node(area, sub_area)
            if sub_area == mirror:
                assert node.kind is TrackKind.EGO
            else:
                assert node.kind is TrackKind.ZERO


def test_occlusion_phantom_eq6_geometry(road):
    """The aligned-diagonal hole gets an Eq. 6 mirror phantom."""
    observed = {"front": state(3, 5030.0, v=12.0)}
    scene = build_scene("ego", make_buffer(observed, ego_state()), road,
                        detection_range=R)
    # C_2 = front; C_{2.2} (directly ahead of C_2) is unobserved -> occlusion.
    node = scene.node(2, 2)
    assert node.kind is TrackKind.PHANTOM_OCCLUSION
    assert node.lane == 3
    assert node.lon == pytest.approx(5030.0 + 30.0)  # mirrored offset
    assert node.v == pytest.approx(12.0)             # inherits C_i speed


def test_occlusion_phantom_diagonal_case(road):
    observed = {"fl": state(2, 5040.0, v=11.0)}
    scene = build_scene("ego", make_buffer(observed, ego_state()), road,
                        detection_range=R)
    node = scene.node(1, 1)
    assert node.kind is TrackKind.PHANTOM_OCCLUSION
    assert node.lane == 1
    assert node.lon == pytest.approx(5040.0 + 40.0)


def test_occlusion_falls_back_to_inherent_off_road(road):
    """Eq. 6 cannot place a phantom off-road; Eq. 5 applies instead."""
    observed = {"fl": state(1, 5040.0)}  # target already leftmost
    scene = build_scene("ego", make_buffer(observed, ego_state(lane=2)), road,
                        detection_range=R)
    node = scene.node(1, 1)
    assert node.kind is TrackKind.PHANTOM_INHERENT
    assert node.lane == 0


def test_observed_surrounding_beats_phantom(road):
    observed = {
        "front": state(3, 5030.0),
        "front2": state(3, 5060.0),  # visible leader-of-leader
    }
    scene = build_scene("ego", make_buffer(observed, ego_state()), road,
                        detection_range=R)
    node = scene.node(2, 2)
    assert node.kind is TrackKind.OBSERVED
    assert node.vid == "front2"


def test_surrounding_range_missing_relative_to_target(road):
    observed = {"front": state(3, 5030.0, v=12.0)}
    scene = build_scene("ego", make_buffer(observed, ego_state()), road,
                        detection_range=R)
    # C_{2.1}: front-left of the front target -> range missing around C_2.
    node = scene.node(2, 1)
    assert node.kind is TrackKind.PHANTOM_RANGE
    assert node.lane == 2
    assert node.lon == pytest.approx(5030.0 + R)
    assert node.v == pytest.approx(12.0)


def test_phantom_count(road):
    scene = build_scene("ego", make_buffer({}, ego_state()), road, detection_range=R)
    assert scene.phantom_count() == 6  # six phantom targets, zero-padded rest


@given(lane=st.integers(1, 6), lon=st.floats(1000.0, 9000.0),
       v=st.floats(1.39, 25.0), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_scene_always_complete_property(lane, lon, v, seed):
    """Whatever the sensor sees, the scene has 6 targets + 36 surroundings."""
    rng = np.random.default_rng(seed)
    road = Road(length=100000.0)
    observed = {
        f"v{i}": state(int(rng.integers(1, 7)), lon + float(rng.uniform(-90, 90)),
                       float(rng.uniform(1.39, 25.0)))
        for i in range(int(rng.integers(0, 8)))
    }
    scene = build_scene("ego", make_buffer(observed, ego_state(lane, lon, v)), road,
                        detection_range=R)
    assert scene.nodes.shape == (NODE_COUNT, Z, 3)
    assert scene.kinds.shape == (NODE_COUNT,) and len(scene.vids) == NODE_COUNT
    for area in range(1, AREA_COUNT + 1):
        for sub_area in range(AREA_COUNT + 1):
            assert scene.node(area, sub_area).kind in TrackKind
