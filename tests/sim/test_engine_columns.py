"""The engine's columns are the world: handle writes, retirement, detach.

``SimulationEngine`` keeps every vehicle field in one
``VehicleColumns`` and hands out ``Vehicle`` row handles.  These tests
pin the behaviour that used to hang on cache invalidation: a write
through a handle between steps is seen by the next step exactly as a
freshly built engine in the same state sees it, a step that retires
vehicles leaves the world a fresh engine over the survivors would
have, and retired or discarded handles keep their final state.
"""

import copy
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.trajectories import _advance_slowdowns
from repro.sim import IDM, Krauss, build_episode, constants
from repro.sim.engine import SimulationEngine
from repro.sim.road import Road
from repro.sim.traci import TraCI
from repro.sim.vehicle import (DriverProfile, ProfileArrays, Vehicle, VehicleColumns,
                               VehicleState)

PROFILE_COLUMNS = [field.name for field in fields(ProfileArrays)] + [
    name for name, attribute in vars(ProfileArrays).items()
    if isinstance(attribute, cached_property)]
COLUMNS = ["lane", "lon", "v", "accel", "prev_accel", "cooldown", "length",
           "is_autonomous"]


def rebuilt(engine):
    """A fresh engine holding the same world, added in the same order."""
    fresh = SimulationEngine(road=engine.road,
                             car_following=engine.car_following,
                             rng=copy.deepcopy(engine.rng))
    fresh.step_count = engine.step_count
    for vehicle in engine.vehicles.values():
        fresh.add_vehicle(Vehicle(
            vehicle.vid, vehicle.state, length=vehicle.length,
            is_autonomous=vehicle.is_autonomous, profile=vehicle.profile,
            accel=vehicle.accel, prev_accel=vehicle.prev_accel,
            cooldown=vehicle.cooldown))
    fresh.collisions = list(engine.collisions)
    fresh.retired = dict(engine.retired)
    return fresh


def same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


def assert_same_world(engine, fresh):
    assert list(engine.vehicles) == list(fresh.vehicles)
    assert [vehicle.vid for vehicle in engine.active_vehicles()] \
        == sorted(engine.vehicles)
    for name in COLUMNS:
        assert same_bits(getattr(engine.columns, name),
                         getattr(fresh.columns, name)), name
    for name in PROFILE_COLUMNS:
        assert same_bits(getattr(engine.columns.profiles, name),
                         getattr(fresh.columns.profiles, name)), name
    assert engine.collisions == fresh.collisions
    assert list(engine.retired) == list(fresh.retired)


def step_both(engine, fresh, av_accel=None):
    for world in (engine, fresh):
        if av_accel is not None and "av" in world.vehicles:
            world.set_maneuver("av", 0, av_accel)
    assert engine.step() == fresh.step()
    assert_same_world(engine, fresh)


@pytest.mark.parametrize("model", [Krauss, IDM])
def test_handle_writes_reach_the_next_step(model):
    """State, cooldown and profile writes between steps, including the
    slowdown events of the synthetic dataset (a profile write whose
    derived columns -- ``desired_speed_floor`` for IDM -- must follow)."""
    engine, _ = build_episode(3, road=Road(length=400.0), density_per_km=200,
                              car_following=model())
    rng = np.random.default_rng(11)
    slowdowns = {}
    for step in range(12):
        cvs = [vehicle for vehicle in engine.active_vehicles()
               if not vehicle.is_autonomous]
        moved, cooled, slowed = cvs[step % len(cvs)], cvs[1], cvs[2]
        lane = moved.lane % engine.road.num_lanes + 1
        moved.state = VehicleState(lane, moved.lon + 3.0, moved.v * 0.5)
        cooled.cooldown = 2
        slowed.profile = replace(slowed.profile,
                                 desired_speed=slowed.profile.desired_speed * 0.5)
        _advance_slowdowns(engine, rng, slowdowns, rate=0.2, duration=3)
        fresh = rebuilt(engine)
        assert_same_world(engine, fresh)
        step_both(engine, fresh, av_accel=1.0)
    assert slowdowns


def test_retiring_step_leaves_the_world_of_a_fresh_engine():
    """A short crowded road retires vehicles on nearly every step; the
    AV (driven at full throttle) retires mid-run."""
    engine, _ = build_episode(3, road=Road(length=200.0), density_per_km=400)
    retiring_steps = 0
    for _ in range(40):
        fresh = rebuilt(engine)
        before = set(engine.vehicles)
        step_both(engine, fresh, av_accel=constants.A_MAX)
        retired = before - set(engine.vehicles)
        retiring_steps += bool(retired)
        for vehicle in engine.active_vehicles():
            assert engine.vehicles[vehicle.vid] is vehicle
            assert vehicle.lon == engine.columns.lon[
                engine.active_vehicles().index(vehicle)]
    assert "av" in engine.retired
    assert not engine.vehicles
    assert retiring_steps >= 20


def test_retired_and_discarded_handles_keep_their_final_state():
    engine, _ = build_episode(5, road=Road(length=300.0), density_per_km=200)
    final: dict[str, tuple] = {}

    def record(vehicle):
        return (vehicle.state, vehicle.accel, vehicle.prev_accel,
                vehicle.cooldown, vehicle.profile, vehicle.finish_time)

    discarded = engine.active_vehicles()[3]
    engine.discard_vehicle(discarded.vid)
    final[discarded.vid] = record(discarded)
    for _ in range(60):
        before = dict(engine.vehicles)
        engine.step()
        for vid in before.keys() - engine.vehicles.keys():
            vehicle = engine.retired[vid]
            assert vehicle is before[vid]
            assert vehicle.finish_time == engine.step_count
            assert vehicle.lon >= engine.road.length
            final[vid] = record(vehicle)
        for vid, expected in final.items():
            vehicle = engine.retired.get(vid, discarded)
            assert record(vehicle) == expected, vid
    assert len(final) > 10
    assert discarded.vid not in engine.retired
    assert discarded.vid not in engine.vehicles
    # The final rows are read-only copies, apart from the world.
    retired = next(iter(engine.retired.values()))
    with pytest.raises(ValueError, match="read-only"):
        discarded.state = VehicleState(1, 0.0, 0.0)
    with pytest.raises(ValueError, match="read-only"):
        retired.cooldown = 9
    with pytest.raises(ValueError, match="read-only"):
        retired.profile = replace(retired.profile, desired_speed=1.0)
    assert record(retired) == final[retired.vid]
    # Handles retired in one step share a copy of their rows; adding one
    # to another engine brings its own row only.
    again = SimulationEngine(road=engine.road)
    for vid, vehicle in engine.retired.items():
        again.add_vehicle(vehicle)
        assert again.vehicles[vid].state == final[vid][0]
    assert list(again.vehicles) == list(engine.retired)
    assert len(again.columns.lon) == len(engine.retired)


def test_stepping_never_serves_stale_population():
    engine = SimulationEngine(road=Road(length=1000.0))
    for index in range(5):
        engine.add_vehicle(Vehicle(
            vid=f"v{index}",
            state=VehicleState(lat=1 + index % 3, lon=50.0 * index, v=15.0)))
    for _ in range(400):
        engine.step()
        vehicles = engine.active_vehicles()
        assert [vehicle.vid for vehicle in vehicles] == sorted(engine.vehicles)
        assert len(engine.columns.lon) == len(vehicles)
        assert [vehicle.lon for vehicle in vehicles] == engine.columns.lon.tolist()
        if not engine.vehicles:
            break
    assert sorted(engine.retired) == [f"v{index}" for index in range(5)]


def test_batch_add_checks_its_rows():
    engine = SimulationEngine(road=Road(length=100.0, num_lanes=2))
    none = VehicleColumns(ProfileArrays.from_profiles([]))
    assert engine.add_vehicles([], none) == []
    two = VehicleColumns(ProfileArrays.from_profiles([DriverProfile()] * 2),
                         lane=[1, 3], lon=[5.0, 9.0], v=1.0)
    with pytest.raises(ValueError, match="1 ids for 2 rows"):
        engine.add_vehicles(["a"], two)
    with pytest.raises(ValueError, match="'b' placed on invalid lane 3"):
        engine.add_vehicles(["a", "b"], two)
    with pytest.raises(ValueError, match="duplicate vehicle id 'a'"):
        engine.add_vehicles(["a", "a"], two)
    assert not engine.vehicles and len(engine.columns.lon) == 0
    engine.step()


def test_removing_an_id_that_is_not_live_raises():
    engine, _ = build_episode(2, road=Road(length=300.0), density_per_km=100)
    traci = TraCI(engine)
    rows = len(engine.columns.lon)
    for remove in (engine.remove_vehicle, engine.discard_vehicle,
                   traci.vehicle.remove):
        with pytest.raises(KeyError, match="nope"):
            remove("nope")
    engine.remove_vehicle("av")
    for remove in (engine.remove_vehicle, engine.discard_vehicle):
        with pytest.raises(KeyError, match="'av'"):
            remove("av")
    with pytest.raises(KeyError, match="nope"):
        engine.discard_vehicles(["cv0", "nope"])
    assert "cv0" in engine.vehicles
    assert len(engine.columns.lon) == rows - 1
    assert list(engine.retired) == ["av"]


#: Vehicle ids are a letter plus a running number, so new ids land
#: before, between and after the rows already present.
ADD = st.tuples(st.sampled_from("abc"), st.integers(1, 3),
                st.sampled_from([0.0, 12.0, 30.0, 30.0, 75.0, 150.0, 190.0]),
                st.sampled_from([2.0, 9.0, 20.0]))
POPULATION_OP = st.one_of(
    st.tuples(st.just("add_vehicles"), st.lists(ADD, max_size=4)),
    st.tuples(st.just("add_vehicle"), ADD),
    st.tuples(st.just("remove_vehicle"), st.integers(0, 30)),
    st.tuples(st.just("discard_vehicle"), st.integers(0, 30)),
    st.tuples(st.just("profile"), st.tuples(st.integers(0, 30),
                                            st.sampled_from([0.0, 0.1]))),
    st.tuples(st.just("step"), st.none()),
)


def touch_derived(engine):
    """Compute every derived profile column, so a population change has
    to carry them through its row copy."""
    for name in PROFILE_COLUMNS:
        getattr(engine.columns.profiles, name)


def assert_handles_read_their_rows(engine):
    table = engine.columns
    rows = engine.active_vehicles()
    assert len(table.lon) == len(rows) == len(engine.vehicles)
    for row, vehicle in enumerate(rows):
        assert engine.vehicles[vehicle.vid] is vehicle
        assert vehicle.state == VehicleState(table.lane[row].item(),
                                             table.lon[row].item(),
                                             table.v[row].item())
        assert (vehicle.accel, vehicle.cooldown) == (table.accel[row],
                                                     table.cooldown[row])
        assert vehicle.profile == DriverProfile(*[
            column[row].item() for column in table.profiles.columns()])
    assert [rows[row].vid for row in engine.arrival_order()] \
        == list(engine.vehicles)


def final_state(vehicle):
    return (vehicle.state, vehicle.accel, vehicle.prev_accel, vehicle.cooldown,
            vehicle.profile, vehicle.finish_time)


@settings(max_examples=60, deadline=None)
@given(operations=st.lists(POPULATION_OP, min_size=1, max_size=25))
def test_population_changes_match_a_fresh_engine(operations):
    """Interleaved adds, removals, discards, profile writes and steps keep
    the rows sorted by id, every handle on its own row, the arrival
    order, the derived profile columns and the final state of every
    detached handle exactly as a fresh engine over the same world has
    them."""
    engine = SimulationEngine(road=Road(length=200.0, num_lanes=3),
                              rng=np.random.default_rng(5))
    detached: dict[str, tuple] = {}
    handles = {}
    added = 0

    def build(spec):
        nonlocal added
        letter, lane, lon, speed = spec
        added += 1
        profile = DriverProfile(desired_speed=15.0 + speed,
                                imperfection=0.0 if added % 3 else 0.1)
        return f"{letter}{added}", Vehicle(f"{letter}{added}",
                                           VehicleState(lane, lon, speed),
                                           profile=profile)

    for kind, argument in operations:
        touch_derived(engine)
        live = list(engine.vehicles)
        if kind == "add_vehicles":
            built = [build(spec) for spec in argument]
            rows = VehicleColumns(
                ProfileArrays.from_profiles([vehicle.profile for _, vehicle in built]),
                lane=[vehicle.lane for _, vehicle in built],
                lon=[vehicle.lon for _, vehicle in built],
                v=[vehicle.v for _, vehicle in built])
            for handle in engine.add_vehicles([vid for vid, _ in built], rows):
                handles[handle.vid] = handle
        elif kind == "add_vehicle":
            vid, vehicle = build(argument)
            handles[vid] = engine.add_vehicle(vehicle)
        elif kind == "step":
            fresh = rebuilt(engine)
            touch_derived(fresh)
            step_both(engine, fresh)
        elif kind == "profile" and live:
            index, imperfection = argument
            vehicle = engine.vehicles[live[index % len(live)]]
            vehicle.profile = replace(vehicle.profile, imperfection=imperfection,
                                      max_accel=1.0 + imperfection)
        elif live:
            vid = live[argument % len(live)]
            getattr(engine, kind)(vid)
        for vid in handles.keys() - engine.vehicles.keys() - detached.keys():
            detached[vid] = final_state(handles[vid])
        assert_same_world(engine, rebuilt(engine))
        assert_handles_read_their_rows(engine)
        for vid, expected in detached.items():
            vehicle = handles[vid]
            assert final_state(vehicle) == expected, vid
            with pytest.raises(ValueError, match="read-only"):
                vehicle.cooldown = 3
            with pytest.raises(ValueError, match="read-only"):
                vehicle.profile = replace(vehicle.profile, min_gap=9.0)
