"""Tests for six-area neighbor selection and observation tracking."""

import pytest

from repro.perception import AREA_COUNT, MIRROR_AREA, ObservationBuffer
from repro.sim import VehicleState
from tests.oracles.perception import area_of, select_neighbors


def state(lane, lon, v=10.0):
    return VehicleState(lat=lane, lon=lon, v=v)


class TestAreaOf:
    def test_six_areas(self):
        center = state(3, 100.0)
        assert area_of(center, state(2, 120.0)) == 1  # front-left
        assert area_of(center, state(3, 120.0)) == 2  # front
        assert area_of(center, state(4, 120.0)) == 3  # front-right
        assert area_of(center, state(2, 80.0)) == 4   # rear-left
        assert area_of(center, state(3, 80.0)) == 5   # rear
        assert area_of(center, state(4, 80.0)) == 6   # rear-right

    def test_non_adjacent_lane_ignored(self):
        center = state(3, 100.0)
        assert area_of(center, state(1, 120.0)) is None
        assert area_of(center, state(5, 120.0)) is None

    def test_same_position_same_lane_is_none(self):
        center = state(3, 100.0)
        assert area_of(center, state(3, 100.0)) is None

    def test_alongside_adjacent_lane_counts_as_rear(self):
        center = state(3, 100.0)
        assert area_of(center, state(2, 100.0)) == 4


def test_mirror_area_is_an_involution():
    for area, mirror in MIRROR_AREA.items():
        assert MIRROR_AREA[mirror] == area


def test_select_neighbors_picks_nearest_per_area():
    center = state(3, 100.0)
    candidates = {
        "near_front": state(3, 110.0),
        "far_front": state(3, 130.0),
        "rear": state(3, 80.0),
        "front_left": state(2, 115.0),
    }
    chosen = select_neighbors(center, candidates)
    assert chosen[2] == "near_front"
    assert chosen[5] == "rear"
    assert chosen[1] == "front_left"
    assert 3 not in chosen and 4 not in chosen and 6 not in chosen


def test_select_neighbors_empty():
    assert select_neighbors(state(3, 100.0), {}) == {}


class TestObservationBuffer:
    def test_history_padding(self):
        buffer = ObservationBuffer(history_steps=4)
        buffer.update({"a": state(1, 10.0)})
        history = buffer.windows(["a"])[0]
        assert history.shape == (4, 3)
        assert (history == [1.0, 10.0, 10.0]).all()

    def test_history_rolls(self):
        buffer = ObservationBuffer(history_steps=3)
        for step in range(5):
            buffer.update({"a": state(1, float(step))})
        history = buffer.windows(["a"])[0]
        assert history[:, 1].tolist() == [2.0, 3.0, 4.0]

    def test_stale_tracks_pruned(self):
        buffer = ObservationBuffer(history_steps=3, max_gap=1)
        buffer.update({"a": state(1, 0.0), "b": state(2, 0.0)})
        buffer.update({"b": state(2, 1.0)})
        assert "a" in buffer
        buffer.update({"b": state(2, 2.0)})
        assert "a" not in buffer
        # The surviving track keeps its own window.
        assert buffer.tracked_ids() == ["b"]
        assert buffer.windows(["b"])[0][:, 1].tolist() == [0.0, 1.0, 2.0]

    def test_track_survives_short_gap(self):
        buffer = ObservationBuffer(history_steps=3, max_gap=2)
        buffer.update({"a": state(1, 0.0)})
        buffer.update({})
        buffer.update({"a": state(1, 5.0)})
        assert buffer.windows(["a"])[0][:, 1].tolist() == [0.0, 0.0, 5.0]

    def test_reset(self):
        buffer = ObservationBuffer(history_steps=3)
        buffer.update({"a": state(1, 0.0)})
        buffer.reset()
        assert buffer.tracked_ids() == []
        with pytest.raises(KeyError):
            buffer.windows(["a"])

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            ObservationBuffer(history_steps=0)
