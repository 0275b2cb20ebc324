"""Spawn's array passes against their scalar forms in ``tests/oracles/spawn.py``.

Spawn finds each lane's keep-clear window by bisection, skips
overlapping placements for all lanes at once, and equilibrates speeds
as a fixpoint over every leader-follower pair before the engine adopts
the vehicles.  Each must give
the bits of the form it replaced -- the per-slot window test, the
lane-by-lane placement walk and the front-to-back equilibration scan
-- on long capped chains, tied longitudes and empty lanes.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.sim import Road, SimulationEngine, constants
from repro.sim.spawn import _equilibrated, _placed, _window_slots
from repro.sim.vehicle import DriverProfile, ProfileArrays, VehicleColumns
from tests.oracles import spawn as oracle

MIN_SPACE = constants.VEHICLE_LENGTH + 1.0

#: A coarse longitude grid, so draws tie and crowd often.
lons = st.one_of(st.floats(0.0, 600.0),
                 st.integers(0, 120).map(lambda step: step * 2.5))


@settings(max_examples=300, deadline=None)
@given(offset=st.floats(0.0, 1.0), per_lane=st.integers(1, 120),
       length=st.floats(50.0, 5000.0),
       window=st.one_of(st.none(), st.tuples(st.floats(-100.0, 5100.0),
                                             st.floats(0.0, 2000.0))))
@example(offset=0.5, per_lane=90, length=3000.0, window=(0.0, 30.0))
@example(offset=0.0, per_lane=1, length=50.0, window=(-100.0, 0.0))
def test_window_bisection_matches_slot_scan(offset, per_lane, length, window):
    spacing = length / per_lane
    top = length - 1.0
    keep_clear = None if window is None else (window[0], window[0] + window[1])
    args = (offset * spacing, spacing, per_lane, top, keep_clear)
    assert _window_slots(*args) == oracle.window_slots(*args)


@settings(max_examples=200, deadline=None)
@given(offset=st.floats(0.0, 1.0), per_lane=st.integers(1, 120),
       length=st.floats(50.0, 5000.0), data=st.data())
def test_window_bisection_matches_slot_scan_at_reach_ends(offset, per_lane,
                                                          length, data):
    """A window whose ends sit exactly on slots' reach ends: the tests
    ``>=`` and ``<=`` decide there."""
    spacing = length / per_lane
    top = length - 1.0
    offset *= spacing
    margin = 1e-9 * (top + 1.0)
    first, last = sorted(data.draw(st.lists(st.integers(0, per_lane - 1),
                                            min_size=2, max_size=2)))
    keep_clear = (min(offset + (first + 0.25) * spacing + margin, top),
                  max(offset + (last - 0.25) * spacing - margin, 0.0))
    args = (offset, spacing, per_lane, top, keep_clear)
    assert _window_slots(*args) == oracle.window_slots(*args)


@st.composite
def lanes_of_candidates(draw):
    """Per lane, candidate longitudes in increasing order (empty lanes
    and ties included), as spawn produces them."""
    return [sorted(draw(st.lists(lons, max_size=25)))
            for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=300, deadline=None)
@given(candidates=lanes_of_candidates())
@example(candidates=[[], [0.0, 0.0, 0.0, 3.0, 6.0, 9.0], []])
@example(candidates=[[10.0, 14.0, 18.0, 22.0, 26.0], [999.0, 999.0]])
def test_overlap_skip_matches_lane_walk(candidates):
    lane = np.repeat(np.arange(1, len(candidates) + 1),
                     [len(lon) for lon in candidates])
    lon = np.array([value for lon in candidates for value in lon], dtype=float)
    expected, start = [], 0
    for lane_lon in candidates:
        expected += [start + slot for slot in oracle.place_lane(lane_lon, MIN_SPACE)]
        start += len(lane_lon)
    assert np.flatnonzero(_placed(lane, lon, MIN_SPACE)).tolist() == expected


def engine_of(lane, lon, v, min_gap, comfort_decel, num_lanes=6):
    """An engine holding the rows, added in the order given."""
    profiles = [DriverProfile(min_gap=gap, comfort_decel=decel)
                for gap, decel in zip(min_gap, comfort_decel)]
    engine = SimulationEngine(road=Road(length=1000.0, num_lanes=num_lanes))
    engine.add_vehicles([f"cv{k}" for k in range(len(lane))], VehicleColumns(
        ProfileArrays.from_profiles(profiles), lane=lane, lon=lon, v=v))
    return engine


def equilibrated(lane, lon, v, min_gap, comfort_decel):
    """Library speeds for rows in adoption order."""
    lon = np.array(lon, dtype=float)
    return _equilibrated(np.array(lane), lon, lon - constants.VEHICLE_LENGTH,
                         np.array(min_gap, dtype=float),
                         np.array(comfort_decel, dtype=float),
                         np.array(v, dtype=float))


def assert_equilibrated_alike(*rows, num_lanes=6):
    """Speeds equal bit for bit the scan's over an engine of the rows."""
    engine = engine_of(*rows, num_lanes=num_lanes)
    oracle.equilibrate_speeds(engine)
    expected = engine.columns.v[np.argsort(engine.columns.arrival)]
    assert equilibrated(*rows).tobytes() == expected.tobytes()


@st.composite
def populations(draw):
    count = draw(st.integers(0, 60))
    lanes = draw(st.integers(1, 6))
    column = lambda values: draw(st.lists(values, min_size=count, max_size=count))
    return (column(st.integers(1, lanes)), column(lons),
            column(st.floats(0.0, 40.0)), column(st.floats(0.0, 3.0)),
            column(st.floats(0.5, 3.0)), lanes)


@settings(max_examples=300, deadline=None)
@given(population=populations())
def test_fixpoint_equilibration_matches_scan(population):
    *rows, num_lanes = population
    assert_equilibrated_alike(*rows, num_lanes=num_lanes)


@settings(max_examples=40, deadline=None)
@given(platoon=st.integers(2, 150), leader_v=st.floats(0.0, 5.0),
       spacing=st.floats(5.0, 12.0), lane=st.integers(1, 6))
def test_slow_leader_caps_a_long_platoon_alike(platoon, leader_v, spacing, lane):
    """Every follower's cap binds, so the cap runs the chain's length."""
    lon = [900.0 - k * spacing for k in range(platoon)]
    v = [leader_v] + [35.0] * (platoon - 1)
    assert_equilibrated_alike([lane] * platoon, lon, v, [2.0] * platoon,
                              [2.5] * platoon)
    speed = equilibrated([lane] * platoon, lon, v, [2.0] * platoon, [2.5] * platoon)
    assert (speed[1:] < 35.0).all()


def test_tied_longitudes_equilibrate_in_arrival_order():
    """Equal longitudes lead in the order they were added."""
    rows = ([2, 2, 2, 2, 4], [100.0, 100.0, 100.0, 90.0, 100.0],
            [3.0, 30.0, 20.0, 30.0, 30.0], [2.0] * 5, [2.5] * 5)
    assert_equilibrated_alike(*rows)
