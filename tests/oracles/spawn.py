"""Scalar oracle of :func:`repro.sim.spawn.populate_traffic`.

One ``rng.uniform`` call per value and one ``np.clip`` per clamp, in
the order the library's block draws must reproduce: per lane, the slot
offset; per slot, the jitter, then -- unless the slot lands in
``keep_clear`` -- the eight driver-profile fields and the speed factor.
Speeds are then equilibrated by the front-to-back scan
:func:`equilibrate_speeds`.  :func:`window_slots` and :func:`place_lane`
are the library's window search and overlap skip in their array and
one-lane forms.
"""

from __future__ import annotations

import numpy as np

from repro.seeding import default_generator
from repro.sim import constants
from repro.sim.engine import SimulationEngine
from repro.sim.road import Road
from repro.sim.spawn import SPAWN_CLEARANCE, insert_autonomous_vehicle
from repro.sim.vehicle import DriverProfile, Vehicle, VehicleState


def random_profile(rng: np.random.Generator, road: Road) -> DriverProfile:
    return DriverProfile(
        desired_speed=float(rng.uniform(0.75, 1.0) * road.v_max),
        time_headway=float(rng.uniform(1.0, 2.0)),
        min_gap=float(rng.uniform(1.5, 3.0)),
        max_accel=float(rng.uniform(1.5, 2.5)),
        comfort_decel=float(rng.uniform(2.0, 3.0)),
        politeness=float(rng.uniform(0.1, 0.5)),
        lane_change_threshold=float(rng.uniform(0.1, 0.4)),
        imperfection=float(rng.uniform(0.0, 0.12)),
    )


def populate_traffic(engine: SimulationEngine, rng: np.random.Generator,
                     density_per_km: float = constants.DENSITY_PER_KM,
                     keep_clear: tuple[float, float] | None = None) -> list[Vehicle]:
    road = engine.road
    total = int(round(density_per_km * road.length / 1000.0))
    per_lane = max(total // road.num_lanes, 1)
    spacing = road.length / per_lane
    min_space = constants.VEHICLE_LENGTH + 1.0
    created: list[Vehicle] = []
    counter = 0
    for lane in range(1, road.num_lanes + 1):
        offset = rng.uniform(0.0, spacing)
        previous: float | None = None
        for slot in range(per_lane):
            lon = offset + slot * spacing + rng.uniform(-0.25, 0.25) * spacing
            lon = float(np.clip(lon, 0.0, road.length - 1.0))
            if keep_clear is not None and keep_clear[0] <= lon <= keep_clear[1]:
                continue
            profile = random_profile(rng, road)
            velocity = float(np.clip(profile.desired_speed * rng.uniform(0.7, 1.0),
                                     road.v_min, road.v_max))
            if previous is not None and lon - previous < min_space:
                continue
            created.append(engine.add_vehicle(Vehicle(
                vid=f"cv{counter}",
                state=VehicleState(lat=lane, lon=lon, v=velocity),
                profile=profile,
            )))
            previous = lon
            counter += 1
    equilibrate_speeds(engine)
    return created


def window_slots(offset: float, spacing: float, per_lane: int, top: float,
                 keep_clear: tuple[float, float] | None) -> tuple[int, int]:
    """Every slot's jitter reach tested against ``keep_clear`` at once."""
    if keep_clear is None:
        return per_lane, per_lane
    slots = np.arange(per_lane)
    margin = 1e-9 * (top + 1.0)
    low = np.maximum(offset + (slots - 0.25) * spacing - margin, 0.0)
    high = np.minimum(offset + (slots + 0.25) * spacing + margin, top)
    reach = np.flatnonzero((high >= keep_clear[0]) & (low <= keep_clear[1]))
    if reach.size == 0:
        return per_lane, per_lane
    return int(reach[0]), int(reach[-1]) + 1


def place_lane(lon: list[float], min_space: float) -> list[int]:
    """Indices kept by one lane's overlap skip: walking up in longitude,
    a candidate closer than ``min_space`` to the last placed is skipped."""
    placed: list[int] = []
    previous: float | None = None
    for slot, lon_next in enumerate(lon):
        if previous is not None and lon_next - previous < min_space:
            continue
        placed.append(slot)
        previous = lon_next
    return placed


def equilibrate_speeds(engine: SimulationEngine) -> None:
    """Walk each lane front to back (equal longitudes in the order the
    vehicles were added) and cap each speed at the Krauss safe speed for
    the vehicle's leader, as capped before it."""
    columns = engine.columns
    order = np.lexsort((columns.arrival, -columns.lon, columns.lane))
    lane, lon, rear, min_gap, comfort_decel, v = (
        column[order].tolist() for column in (
            columns.lane, columns.lon, columns.lon - columns.length,
            columns.profiles.min_gap, columns.profiles.comfort_decel, columns.v))
    tau = 1.0
    for leader in range(len(order) - 1):
        follower = leader + 1
        if lane[follower] != lane[leader]:
            continue
        gap = max(rear[leader] - lon[follower] - min_gap[follower], 0.0)
        brake = comfort_decel[follower]
        v_safe = v[leader] + (gap - v[leader] * tau) / ((v[follower] + v[leader]) / (2.0 * brake) + tau)
        v_safe = max(v_safe, 0.0)
        if v[follower] > v_safe:
            v[follower] = v_safe
    columns.v[order] = v


def build_episode(seed: int, road: Road, density_per_km: float) -> SimulationEngine:
    """:func:`repro.sim.build_episode` with the scalar ``populate_traffic``."""
    rng = default_generator(seed)
    engine = SimulationEngine(road=road, rng=rng)
    populate_traffic(engine, rng, density_per_km, keep_clear=(0.0, SPAWN_CLEARANCE))
    insert_autonomous_vehicle(engine, rng)
    return engine
