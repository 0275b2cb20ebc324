"""Scalar lane queries against a brute-force scan oracle.

``SimulationEngine.leader_in_lane`` / ``follower_in_lane`` answer from
the engine's one lane index, rebuilt lazily after any add, removal or
step.  The oracle below scans every live vehicle and keeps the tie
contract the engine has always had: among vehicles sharing the nearest
longitude, the leader is the last-inserted one and the follower the
first-inserted one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.engine as engine_module
from repro.decision.fleet import FleetEnv
from repro.decision.pamdp import LaneBehavior, ParameterizedAction
from repro.perception.module import EnhancedPerception
from repro.sim import Road, SimulationEngine, Vehicle, VehicleState, build_episode

NUM_LANES = 4
#: Few distinct longitudes, so equal-longitude runs are common.
LONS = [0.0, 10.0, 25.0, 25.5, 40.0, 90.0]
QUERY_LONS = LONS + [-1.0, 5.0, 25.25, 60.0, 150.0]


def oracle(engine, inserted, lane, lon, ahead):
    live = [engine.vehicles[vid] for vid in inserted if vid in engine.vehicles]
    in_lane = [vehicle for vehicle in live if vehicle.lane == lane
               and (vehicle.lon > lon if ahead else vehicle.lon < lon)]
    if not in_lane:
        return None
    nearest = (min if ahead else max)(vehicle.lon for vehicle in in_lane)
    ties = [vehicle for vehicle in in_lane if vehicle.lon == nearest]
    return ties[-1] if ahead else ties[0]


operation = st.one_of(
    st.tuples(st.just("add"), st.integers(1, NUM_LANES), st.sampled_from(LONS)),
    st.tuples(st.just("remove"), st.integers(0, 40), st.just(0.0)),
    st.tuples(st.just("step"), st.just(0), st.just(0.0)),
)


@settings(max_examples=150, deadline=None)
@given(operations=st.lists(operation, max_size=30),
       queries=st.lists(st.tuples(st.integers(0, NUM_LANES + 1),
                                  st.sampled_from(QUERY_LONS)),
                        min_size=1, max_size=6))
def test_lane_queries_match_scan_oracle(operations, queries):
    engine = SimulationEngine(road=Road(length=200.0, num_lanes=NUM_LANES),
                              rng=np.random.default_rng(0))
    inserted: list[str] = []
    for kind, value, lon in operations:
        if kind == "add":
            vid = f"v{len(inserted)}"
            engine.add_vehicle(Vehicle(vid, VehicleState(value, lon, 5.0)))
            inserted.append(vid)
        elif kind == "remove" and engine.vehicles:
            live = list(engine.vehicles)
            engine.remove_vehicle(live[value % len(live)])
        elif kind == "step":
            engine.step()
        for lane, query_lon in queries:
            assert engine.leader_in_lane(lane, query_lon) is \
                oracle(engine, inserted, lane, query_lon, ahead=True)
            assert engine.follower_in_lane(lane, query_lon) is \
                oracle(engine, inserted, lane, query_lon, ahead=False)


def test_episode_build_constructs_at_most_one_lane_index(monkeypatch):
    built = []

    class CountingHash(engine_module.SpatialHash):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_module, "SpatialHash", CountingHash)
    build_episode(0, Road(length=3000.0), 180)
    assert len(built) <= 1


@pytest.mark.parametrize("num_avs", [1, 4])
def test_steady_fleet_step_builds_one_lane_index(monkeypatch, num_avs):
    """The step's neighbor pass and the queries between steps share the
    index the previous step built over its post-step positions."""
    built = []

    class CountingHash(engine_module.SpatialHash):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_module, "SpatialHash", CountingHash)
    env = FleetEnv([EnhancedPerception(predictor=None) for _ in range(num_avs)],
                   road=Road(length=1000.0), density_per_km=120.0)
    env.reset(0)
    keep = ParameterizedAction(LaneBehavior.KEEP, 0.0)
    env.step({vid: keep for vid in env.active_ids()})
    for _ in range(6):
        built.clear()
        env.step({vid: keep for vid in env.active_ids()})
        assert len(built) == 1
        engine = env.engine
        for vehicle in engine.active_vehicles():
            engine.leader_of(vehicle)
            engine.follower_of(vehicle, vehicle.lane + 1)
        assert len(built) == 1
    assert len(env.active_ids()) == num_avs
    # The step itself builds the index over its post-step positions.
    built.clear()
    env.engine.step()
    assert len(built) == 1
