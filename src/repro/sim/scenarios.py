"""Scripted traffic scenarios for tests, examples, and debugging.

Each scenario builds a deterministic engine around an autonomous
vehicle, exercising one canonical interaction pattern:

* :func:`cut_in` -- a conventional vehicle merges closely in front of
  the AV (the situation the impact reward penalizes when the AV causes
  it, and emergency braking absorbs when survivable);
* :func:`stop_and_go_wave` -- a braking wave travels backward through a
  platoon toward the AV (the congestion pattern from the paper's
  introduction);
* :func:`blocked_lane` -- the AV approaches a slow platoon with one
  free lane (the classic lane-change decision);
* :func:`platoon` -- steady-state car following.

All scenarios return ``(engine, av)`` with the AV uncontrolled; tests
and examples drive it via ``engine.set_maneuver``.

:func:`dense_platoon` is different: a CV-only packed steady-state scene
used by the vectorization benchmark and the equivalence/property tests,
returning just the engine.
"""

from __future__ import annotations

import numpy as np

from ..seeding import default_generator
from .carfollowing import CarFollowingModel
from .engine import SimulationEngine
from .road import Road
from .spawn import random_profile
from .vehicle import DriverProfile, Vehicle, VehicleState

__all__ = ["cut_in", "stop_and_go_wave", "blocked_lane", "platoon",
           "dense_platoon"]


def _engine(num_lanes: int = 3, length: float = 2000.0) -> SimulationEngine:
    return SimulationEngine(road=Road(length=length, num_lanes=num_lanes),
                            rng=default_generator(0))


def _calm_profile(desired_speed: float = 22.0) -> DriverProfile:
    return DriverProfile(desired_speed=desired_speed, imperfection=0.0,
                         lane_change_threshold=10.0)  # no spontaneous changes


def cut_in(gap: float = 12.0, speed_delta: float = 4.0
           ) -> tuple[SimulationEngine, Vehicle]:
    """A CV one lane over, positioned to merge ``gap`` meters ahead.

    The merger has a strong incentive (slow leader in its own lane) and
    a clear MOBIL-safe gap, so it changes lanes within a few steps.
    """
    engine = _engine()
    av = engine.add_vehicle(Vehicle("av", VehicleState(2, 100.0, 20.0),
                                    is_autonomous=True))
    engine.add_vehicle(Vehicle(
        "merger", VehicleState(3, 100.0 + gap + 5.0, 20.0 - speed_delta),
        profile=DriverProfile(desired_speed=25.0, imperfection=0.0,
                              politeness=0.0, lane_change_threshold=0.05)))
    engine.add_vehicle(Vehicle(
        "obstruction", VehicleState(3, 100.0 + gap + 25.0, 3.0),
        profile=_calm_profile(3.0)))
    return engine, av


def stop_and_go_wave(platoon_size: int = 8, headway: float = 18.0
                     ) -> tuple[SimulationEngine, Vehicle]:
    """The AV follows a platoon whose leader brakes to a crawl.

    The braking front propagates backward vehicle by vehicle -- by the
    time it reaches the AV's predecessor, an interaction-aware predictor
    has seen it coming for several steps.
    """
    engine = _engine(num_lanes=1, length=3000.0)
    front = 100.0 + platoon_size * headway
    engine.add_vehicle(Vehicle("wave_head", VehicleState(1, front + headway, 18.0),
                               profile=_calm_profile(2.0)))  # decelerating head
    for index in range(platoon_size):
        lon = front - index * headway
        engine.add_vehicle(Vehicle(f"p{index}", VehicleState(1, lon, 18.0),
                                   profile=_calm_profile(22.0)))
    av = engine.add_vehicle(Vehicle(
        "av", VehicleState(1, front - platoon_size * headway, 18.0),
        is_autonomous=True))
    return engine, av


def blocked_lane(platoon_speed: float = 6.0) -> tuple[SimulationEngine, Vehicle]:
    """Slow platoon ahead in the AV's lane; the left lane is free."""
    engine = _engine(num_lanes=2)
    av = engine.add_vehicle(Vehicle("av", VehicleState(2, 100.0, 20.0),
                                    is_autonomous=True))
    for index in range(4):
        engine.add_vehicle(Vehicle(
            f"slow{index}", VehicleState(2, 150.0 + 14.0 * index, platoon_speed),
            profile=_calm_profile(platoon_speed)))
    return engine, av


def platoon(size: int = 5, headway: float = 25.0, speed: float = 20.0
            ) -> tuple[SimulationEngine, Vehicle]:
    """Steady-state single-lane car following behind ``size`` vehicles."""
    engine = _engine(num_lanes=1)
    for index in range(size):
        engine.add_vehicle(Vehicle(
            f"p{index}", VehicleState(1, 200.0 + headway * index, speed),
            profile=_calm_profile(speed)))
    av = engine.add_vehicle(Vehicle("av", VehicleState(1, 200.0 - headway, speed),
                                    is_autonomous=True))
    return engine, av


def dense_platoon(seed: int = 0, size: int = 30, num_lanes: int = 3,
                  road_length: float = 3000.0,
                  car_following: CarFollowingModel | None = None
                  ) -> SimulationEngine:
    """Packed CV-only traffic that stays on the road: the benchmark scene.

    ``size`` heterogeneous conventional vehicles are squeezed into the
    first ~400 m of a long road, so for hundreds of steps every vehicle
    keeps following, dawdling, and competing for lanes -- a steady-state
    hot-path workload with no retirements, unlike open-road episodes
    that drain and leave the step loop underloaded.
    """
    rng = default_generator(seed)
    engine = SimulationEngine(road=Road(length=road_length, num_lanes=num_lanes),
                              car_following=car_following,
                              rng=rng)
    per_lane = (size + num_lanes - 1) // num_lanes
    spacing = 380.0 / per_lane
    placed = 0
    for lane in range(1, num_lanes + 1):
        for slot in range(per_lane):
            if placed >= size:
                break
            lon = 20.0 + slot * spacing + float(rng.uniform(-3.0, 3.0))
            profile = random_profile(rng, engine.road)
            velocity = float(np.clip(profile.desired_speed * rng.uniform(0.6, 0.9),
                                     engine.road.v_min, engine.road.v_max))
            engine.add_vehicle(Vehicle(f"cv{placed:03d}",
                                       VehicleState(lane, lon, velocity),
                                       profile=profile))
            placed += 1
    return engine
