"""Population-generation caches: reuse while stable, rebuild on change.

``active_vehicles()`` and ``_static_arrays()`` are O(N log N) / O(N)
gathers that the fleet step would otherwise repeat for every AV; the
engine memoizes both behind ``_generation``, which bumps on every
add/remove/discard and retirement.  These tests pin the caching
contract: identical objects back while the population is unchanged,
correct fresh values after any population edit, and no staleness
across engine steps.  A step that retires vehicles compacts the
caches instead of dropping them; the compacted caches must equal a
fresh gather bit for bit.
"""

from dataclasses import fields
from functools import cached_property

import numpy as np

from repro.sim import build_episode, constants
from repro.sim.engine import SimulationEngine
from repro.sim.road import Road
from repro.sim.vehicle import ProfileArrays, Vehicle, VehicleState


def make_engine(count=5):
    engine = SimulationEngine(road=Road(length=1000.0))
    for index in range(count):
        engine.add_vehicle(Vehicle(
            vid=f"v{index}",
            state=VehicleState(lat=1 + index % 3, lon=50.0 * index, v=15.0)))
    return engine


def test_active_vehicles_cached_until_population_changes():
    engine = make_engine()
    first = engine.active_vehicles()
    assert engine.active_vehicles() is first
    assert [vehicle.vid for vehicle in first] == sorted(engine.vehicles)

    engine.add_vehicle(Vehicle(vid="extra",
                               state=VehicleState(lat=2, lon=999.0, v=10.0)))
    second = engine.active_vehicles()
    assert second is not first
    assert [vehicle.vid for vehicle in second] == sorted(engine.vehicles)


def test_remove_and_discard_invalidate_active_cache():
    engine = make_engine()
    before = engine.active_vehicles()
    engine.remove_vehicle("v1")
    after_remove = engine.active_vehicles()
    assert after_remove is not before
    assert "v1" not in [vehicle.vid for vehicle in after_remove]
    assert "v1" in engine.retired

    engine.discard_vehicle("v2")
    after_discard = engine.active_vehicles()
    assert after_discard is not after_remove
    assert "v2" not in [vehicle.vid for vehicle in after_discard]
    assert "v2" not in engine.retired  # discarded, not "finished"


def test_static_arrays_cached_and_rebuilt():
    engine = make_engine()
    vehicles = engine.active_vehicles()
    first = engine._static_arrays(vehicles)
    assert engine._static_arrays(vehicles) is first
    lengths, is_av, v_floor, not_av, has_av = first
    assert lengths.shape == is_av.shape == (len(vehicles),)
    assert not has_av
    assert not_av.all()
    assert (v_floor == 0.0).all()

    engine.add_vehicle(Vehicle(vid="av",
                               state=VehicleState(lat=3, lon=900.0, v=20.0),
                               is_autonomous=True))
    vehicles = engine.active_vehicles()
    second = engine._static_arrays(vehicles)
    assert second is not first
    lengths, is_av, v_floor, not_av, has_av = second
    assert has_av
    assert is_av.sum() == 1
    row = [vehicle.vid for vehicle in vehicles].index("av")
    assert is_av[row]
    assert v_floor[row] == engine.road.v_min


def test_stepping_never_serves_stale_population():
    """Retirements during step() must invalidate the caches."""
    engine = make_engine()
    for _ in range(400):
        engine.step()
        vehicles = engine.active_vehicles()
        assert [vehicle.vid for vehicle in vehicles] == sorted(engine.vehicles)
        arrays = engine._static_arrays(vehicles)
        assert arrays[0].shape[0] == len(vehicles)
        if not engine.vehicles:
            break
    assert engine.retired  # the short road actually exercised removal


PROFILE_COLUMNS = [field.name for field in fields(ProfileArrays)] + [
    name for name, attribute in vars(ProfileArrays).items()
    if isinstance(attribute, cached_property)]


def same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


def assert_caches_match_fresh_gather(engine):
    vehicles = engine.active_vehicles()
    assert [vehicle.vid for vehicle in vehicles] == sorted(engine.vehicles)
    if not vehicles:
        return
    assert engine._static_generation == engine._generation
    compacted = engine._static_cache
    engine._static_generation = -1
    fresh = engine._static_arrays(vehicles)
    engine._static_cache = compacted
    engine._static_generation = engine._generation
    for actual, expected in zip(compacted[:4], fresh[:4]):
        assert same_bits(actual, expected)
    assert compacted[4] is fresh[4]

    profiles = engine._profile_cache
    fresh_profiles = ProfileArrays.from_profiles(
        vehicle.profile for vehicle in vehicles)
    for name in PROFILE_COLUMNS:
        assert same_bits(getattr(profiles, name), getattr(fresh_profiles, name)), name

    soa_vehicles, states, lane, lon, v, cooldown, cooldown_list, deques = \
        engine._soa_cache
    assert soa_vehicles == vehicles
    assert all(state is vehicle.state for state, vehicle in zip(states, vehicles))
    assert len(states) == len(vehicles)
    assert same_bits(lane, [vehicle.lane for vehicle in vehicles])
    assert same_bits(lon, [vehicle.lon for vehicle in vehicles])
    assert same_bits(v, [vehicle.v for vehicle in vehicles])
    assert same_bits(cooldown, [vehicle.cooldown for vehicle in vehicles])
    assert cooldown_list == [vehicle.cooldown for vehicle in vehicles]
    assert all(past is engine.history[vehicle.vid]
               for past, vehicle in zip(deques, vehicles))
    assert len(deques) == len(vehicles)


def test_retirement_compacts_caches_to_a_fresh_gather(monkeypatch):
    """A short crowded road retires vehicles on nearly every step; the AV
    (driven at full throttle) retires mid-run, and one profile is
    rewritten plus ``invalidate_profiles()`` called half way."""
    gathers = []
    gather = ProfileArrays.from_profiles

    def counting(cls, profiles):
        gathers.append(1)
        return gather(profiles)

    monkeypatch.setattr(ProfileArrays, "from_profiles", classmethod(counting))
    engine, _ = build_episode(3, road=Road(length=200.0), density_per_km=400)
    retiring_steps = 0
    for step in range(40):
        invalidated = step == 8
        if invalidated:
            vehicle = engine.active_vehicles()[0]
            vehicle.profile.desired_speed *= 0.5
            engine.invalidate_profiles()
        if "av" in engine.vehicles:
            engine.set_maneuver("av", 0, constants.A_MAX)
        before = set(engine.vehicles)
        gathers.clear()
        engine.step()
        assert set(engine.vehicles) <= before
        retired = before - set(engine.vehicles)
        retiring_steps += bool(retired)
        if step > 0 and before:
            # Retirement is the only population change: never regather.
            assert len(gathers) == int(invalidated)
        assert_caches_match_fresh_gather(engine)
        if "av" in retired:
            assert engine.vehicles and not engine._static_cache[4]
    assert "av" in engine.retired
    assert not engine.vehicles
    assert retiring_steps >= 20
