"""Tests for the simulation engine: stepping, queries, collisions."""

import numpy as np
import pytest

from repro.sim import (
    IDM, MOBIL, CarFollowingModel, Maneuver, Road, SimulationEngine, TraCI,
    Vehicle, VehicleState, build_episode, constants, insert_autonomous_vehicle,
    populate_traffic,
)
from repro.sim.vehicle import DriverProfile
from tests.oracles import engine as oracle


def make_engine(**kwargs) -> SimulationEngine:
    defaults = dict(road=Road(length=500.0), rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return SimulationEngine(**defaults)


def put(engine, vid, lane, lon, v, autonomous=False, **profile_kwargs):
    profile = DriverProfile(**profile_kwargs) if profile_kwargs else DriverProfile(imperfection=0.0)
    vehicle = Vehicle(vid, VehicleState(lane, lon, v), is_autonomous=autonomous, profile=profile)
    return engine.add_vehicle(vehicle)


def test_add_vehicle_rejects_duplicates_and_bad_lanes():
    engine = make_engine()
    put(engine, "a", 1, 10.0, 10.0)
    with pytest.raises(ValueError):
        put(engine, "a", 1, 50.0, 10.0)
    with pytest.raises(ValueError):
        put(engine, "b", 9, 50.0, 10.0)


def test_leader_follower_queries():
    engine = make_engine()
    a = put(engine, "a", 2, 100.0, 10.0)
    b = put(engine, "b", 2, 150.0, 10.0)
    c = put(engine, "c", 2, 50.0, 10.0)
    put(engine, "d", 3, 120.0, 10.0)
    assert engine.leader_of(a).vid == "b"
    assert engine.follower_of(a).vid == "c"
    assert engine.leader_of(b) is None
    assert engine.follower_of(c) is None
    assert engine.leader_of(a, lane=3).vid == "d"
    assert engine.follower_of(b, lane=3).vid == "d"


def test_set_maneuver_validates_and_clips():
    engine = make_engine()
    put(engine, "av", 1, 10.0, 10.0, autonomous=True)
    with pytest.raises(ValueError):
        engine.set_maneuver("av", 2, 0.0)
    engine.set_maneuver("av", 0, 99.0)
    assert engine._pending["av"].accel == pytest.approx(constants.A_MAX)


def test_controlled_vehicle_follows_commands():
    engine = make_engine()
    av = put(engine, "av", 3, 10.0, 10.0, autonomous=True)
    engine.set_maneuver("av", 1, 1.0)
    engine.step()
    assert av.lane == 4
    assert av.v == pytest.approx(10.5)
    assert av.lon == pytest.approx(10.0 + 10.0 * 0.5 + 0.5 * 1.0 * 0.25)


def test_uncommanded_av_coasts():
    engine = make_engine()
    av = put(engine, "av", 3, 10.0, 10.0, autonomous=True)
    engine.step()
    assert av.v == pytest.approx(10.0)
    assert av.lane == 3


def test_av_velocity_clamped_to_road_limits():
    engine = make_engine()
    av = put(engine, "av", 1, 10.0, 24.9, autonomous=True)
    engine.set_maneuver("av", 0, 3.0)
    engine.step()
    assert av.v == pytest.approx(25.0)
    engine.set_maneuver("av", 0, -3.0)
    for _ in range(40):
        engine.set_maneuver("av", 0, -3.0)
        engine.step()
        if "av" not in engine.vehicles:
            break
    if "av" in engine.vehicles:
        assert av.v >= engine.road.v_min - 1e-9


def test_boundary_collision_recorded_and_vehicle_stays():
    engine = make_engine()
    av = put(engine, "av", 1, 10.0, 10.0, autonomous=True)
    engine.set_maneuver("av", -1, 0.0)
    events = engine.step()
    assert any(e.kind == "boundary" and e.vehicle_id == "av" for e in events)
    assert av.lane == 1


def test_crash_detection_on_overlap():
    engine = make_engine()
    put(engine, "fast", 2, 10.0, 20.0, autonomous=True)
    put(engine, "slow", 2, 18.0, 0.0, autonomous=True)
    engine.set_maneuver("fast", 0, 0.0)
    engine.set_maneuver("slow", 0, 0.0)
    events = engine.step()
    assert any(e.kind == "crash" for e in events)


def test_conventional_vehicle_brakes_behind_slow_leader():
    engine = make_engine(road=Road(length=500.0, num_lanes=1))
    follower = put(engine, "f", 1, 80.0, 20.0)
    put(engine, "l", 1, 100.0, 5.0, autonomous=True)
    engine.set_maneuver("l", 0, 0.0)
    engine.step()
    assert follower.accel < 0


def test_conventional_traffic_is_collision_free():
    engine = SimulationEngine(road=Road(length=800.0), rng=np.random.default_rng(5))
    populate_traffic(engine, np.random.default_rng(5), density_per_km=150)
    for _ in range(100):
        engine.step()
    crashes = [e for e in engine.collisions if e.kind == "crash"]
    assert crashes == []


def test_vehicle_retires_past_road_end():
    engine = make_engine(road=Road(length=100.0))
    put(engine, "a", 1, 95.0, 20.0, autonomous=True)
    engine.set_maneuver("a", 0, 0.0)
    engine.step()
    assert "a" not in engine.vehicles
    assert engine.retired["a"].finish_time == 1


def test_jerk_bookkeeping_prev_accel():
    engine = make_engine()
    av = put(engine, "av", 1, 10.0, 10.0, autonomous=True)
    engine.set_maneuver("av", 0, 2.0)
    engine.step()
    engine.set_maneuver("av", 0, -1.0)
    engine.step()
    assert av.prev_accel == pytest.approx(2.0)
    assert av.accel == pytest.approx(-1.0)


def test_build_episode_reproducible():
    a_engine, a_av = build_episode(seed=11, road=Road(length=600.0), density_per_km=100)
    b_engine, b_av = build_episode(seed=11, road=Road(length=600.0), density_per_km=100)
    assert a_av.state == b_av.state
    assert len(a_engine.vehicles) == len(b_engine.vehicles)
    states_a = sorted((v.vid, v.lon, v.v) for v in a_engine.vehicles.values())
    states_b = sorted((v.vid, v.lon, v.v) for v in b_engine.vehicles.values())
    assert states_a == states_b


def test_build_episode_av_starts_at_origin():
    engine, av = build_episode(seed=1, road=Road(length=600.0), density_per_km=100)
    assert av.lon == pytest.approx(0.0)
    assert av.is_autonomous
    assert engine.road.is_valid_lane(av.lane)


def test_mobil_changes_lane_to_escape_slow_leader():
    engine = make_engine()
    follower = put(engine, "f", 2, 80.0, 20.0, desired_speed=25.0, politeness=0.0,
                   lane_change_threshold=0.1, imperfection=0.0)
    put(engine, "slow", 2, 95.0, 3.0, autonomous=True)
    engine.set_maneuver("slow", 0, 0.0)
    engine.step()
    assert follower.lane in (1, 3)


def test_mobil_respects_safety_of_new_follower():
    engine = make_engine()
    changer = put(engine, "c", 2, 80.0, 10.0, politeness=0.0,
                  lane_change_threshold=0.1, imperfection=0.0)
    put(engine, "slow", 2, 90.0, 2.0, autonomous=True)
    # A fast vehicle right behind in lane 1 makes the change unsafe.
    put(engine, "fast", 1, 78.0, 25.0, autonomous=True)
    decision = oracle.evaluate(MOBIL(IDM()), changer, engine.leader_of(changer),
                               engine.leader_of(changer, 1),
                               engine.follower_of(changer, 1), -1)
    assert decision.incentive == float("-inf")


def test_car_following_model_without_batch_method_is_rejected():
    class ScalarOnly(CarFollowingModel):
        def acceleration(self, v, leader_v, gap, profile):
            return 0.0

    with pytest.raises(TypeError, match="ScalarOnly"):
        SimulationEngine(car_following=ScalarOnly())


def test_traci_facade_roundtrip():
    engine = make_engine()
    put(engine, "av", 2, 50.0, 10.0, autonomous=True)
    put(engine, "lead", 2, 80.0, 12.0)
    traci = TraCI(engine)
    assert traci.vehicle.getIDList() == ["av", "lead"]
    assert traci.vehicle.getLaneIndex("av") == 2
    assert traci.vehicle.getLanePosition("av") == pytest.approx(50.0)
    assert traci.vehicle.getSpeed("av") == pytest.approx(10.0)
    leader_id, gap = traci.vehicle.getLeader("av")
    assert leader_id == "lead"
    assert gap == pytest.approx(80.0 - 5.0 - 50.0)
    follower_id, _ = traci.vehicle.getFollower("lead")
    assert follower_id == "av"
    traci.vehicle.setManeuver("av", 0, 1.0)
    traci.simulationStep()
    assert traci.simulation.getTime() == pytest.approx(0.5)
    assert traci.vehicle.getSpeed("av") == pytest.approx(10.5)
    traci.vehicle.remove("lead")
    assert traci.vehicle.getIDList() == ["av"]


def test_density_metric():
    engine = make_engine(road=Road(length=1000.0))
    for i in range(10):
        put(engine, f"v{i}", 1 + i % 3, 10.0 + 30.0 * i, 10.0)
    assert engine.density_per_km() == pytest.approx(10.0)
