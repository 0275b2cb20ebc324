"""Traffic population: seed a road with heterogeneous conventional traffic.

Reproduces the paper's episode setup: a straight six-lane road populated
at a target density (180 veh/km by default), with one autonomous vehicle
initialized at the road origin on a random lane.  Each conventional
driver gets randomized IDM/Krauss parameters so the traffic is as
heterogeneous as NGSIM-like real data.
"""

from __future__ import annotations

import numpy as np

from ..seeding import default_generator
from . import constants
from .engine import SimulationEngine
from .road import Road
from .vehicle import DriverProfile, ProfileArrays, Vehicle, VehicleColumns, VehicleState

__all__ = ["random_profile", "populate_traffic", "insert_autonomous_vehicle",
           "build_episode", "fleet_vids", "insert_autonomous_fleet",
           "build_fleet_episode"]

#: Clear space (m) kept around the AV spawn point so episodes start fair.
SPAWN_CLEARANCE = 30.0


#: Uniform draw bounds ``(low, high)`` of one spawned conventional
#: vehicle, in stream order: slot jitter (fraction of the lane spacing),
#: the eight :class:`DriverProfile` fields in declaration order (desired
#: speed as a fraction of ``v_max``), and the initial speed as a fraction
#: of the desired speed.  A unit draw ``u`` maps to ``low + (high - low)
#: * u``, the formula ``Generator.uniform`` evaluates, so array and
#: scalar draws give the same bits.
_SPAWN_BOUNDS = np.array([
    (-0.25, 0.25),   # slot jitter
    (0.75, 1.0),     # desired_speed / v_max
    (1.0, 2.0),      # time_headway
    (1.5, 3.0),      # min_gap
    (1.5, 2.5),      # max_accel
    (2.0, 3.0),      # comfort_decel
    (0.1, 0.5),      # politeness
    (0.1, 0.4),      # lane_change_threshold
    (0.0, 0.12),     # imperfection
    (0.7, 1.0),      # initial speed / desired speed
])
_LOW = _SPAWN_BOUNDS[:, 0]
_SPAN = _SPAWN_BOUNDS[:, 1] - _LOW
_DRAWS = len(_SPAWN_BOUNDS)
_PROFILE = slice(1, 9)


def random_profile(rng: np.random.Generator, road: Road) -> DriverProfile:
    """Draw a heterogeneous human-driver profile.

    Desired speeds spread around 80-100% of the limit; headways, gaps
    and politeness vary so lane-change pressure differs per driver.
    """
    values = (_LOW[_PROFILE] + _SPAN[_PROFILE] * rng.random(8)).tolist()
    values[0] *= road.v_max
    return DriverProfile(*values)


def _slot_lon(offset: float, slot, spacing: float, top: float, unit_jitter):
    """Clipped longitude of lane slot(s) ``slot`` from unit jitter draw(s)."""
    jitter = _LOW[0] + _SPAN[0] * unit_jitter
    return np.minimum(np.maximum(offset + slot * spacing + jitter * spacing, 0.0), top)


def _window_slots(offset: float, spacing: float, per_lane: int, top: float,
                  keep_clear: tuple[float, float] | None) -> tuple[int, int]:
    """The run ``[first, stop)`` of a lane's slots that could land in ``keep_clear``.

    A slot's jitter reaches a quarter spacing either way; the reach is
    widened by a billionth of the road so rounding cannot put a slot
    outside it.  Both ends of the reach grow with the slot index, so
    the slots that reach the window are contiguous.  No window, or none
    reaching it, gives the empty run ``[per_lane, per_lane)``.
    """
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


def populate_traffic(engine: SimulationEngine, rng: np.random.Generator,
                     density_per_km: float = constants.DENSITY_PER_KM,
                     keep_clear: tuple[float, float] | None = None) -> list[Vehicle]:
    """Fill an empty road with conventional vehicles at the target density.

    Vehicles are spread across lanes with jittered spacing and speeds
    near their desired speed.  ``keep_clear=(lon_min, lon_max)``
    reserves that stretch on every lane, so insertion of the autonomous
    vehicle cannot start inside a platoon.

    Each slot draws the ten uniforms of ``_SPAWN_BOUNDS`` in order,
    except that a slot landing in ``keep_clear`` stops after its
    jitter.  Slots that cannot reach the window draw as one
    ``(n, 10)`` block, which consumes the stream exactly as the
    slot-by-slot draws would; the few that can draw one at a time.

    A lane's slots come out in increasing longitude (the jitter is under
    half the spacing), so a candidate can only overlap the vehicle last
    placed in its lane; raises ``ValueError`` on a populated engine,
    whose vehicles this placement would not see.  The engine adopts
    every lane's vehicles in one batch.
    """
    if engine.vehicles:
        raise ValueError("populate_traffic needs an empty engine")
    road = engine.road
    total = int(round(density_per_km * road.length / 1000.0))
    per_lane = max(total // road.num_lanes, 1)
    spacing = road.length / per_lane
    min_space = constants.VEHICLE_LENGTH + 1.0
    top = road.length - 1.0
    lanes: list[int] = []
    spawned: list[np.ndarray] = []   # per lane: lon, speed, profile
    for lane in range(1, road.num_lanes + 1):
        offset = rng.uniform(0.0, spacing)
        first, stop = _window_slots(offset, spacing, per_lane, top, keep_clear)
        slots = list(range(first))
        units = [rng.random((first, _DRAWS))]
        for slot in range(first, stop):
            jitter = rng.random()
            if keep_clear[0] <= _slot_lon(offset, slot, spacing, top, jitter) <= keep_clear[1]:
                continue
            slots.append(slot)
            units.append(np.append(jitter, rng.random(_DRAWS - 1))[np.newaxis])
        slots.extend(range(stop, per_lane))
        units.append(rng.random((per_lane - stop, _DRAWS)))
        unit = np.concatenate(units)
        lon = _slot_lon(offset, np.array(slots), spacing, top, unit[:, 0])
        values = _LOW + _SPAN * unit
        values[:, 1] *= road.v_max
        velocity = np.minimum(np.maximum(values[:, 1] * values[:, 9], road.v_min),
                              road.v_max)
        # Skip placements that would overlap the previous vehicle.
        placed: list[int] = []
        previous: float | None = None
        for slot, lon_next in enumerate(lon.tolist()):
            if previous is not None and lon_next - previous < min_space:
                continue
            placed.append(slot)
            previous = lon_next
        lanes += [lane] * len(placed)
        spawned.append(np.column_stack((lon, velocity, values[:, _PROFILE]))[placed])
    block = np.concatenate(spawned)
    created = engine.add_vehicles(
        [f"cv{index}" for index in range(len(lanes))],
        VehicleColumns(ProfileArrays(*block[:, 2:].T), lane=lanes,
                       lon=block[:, 0], v=block[:, 1]))
    _equilibrate_speeds(engine)
    return created


def _equilibrate_speeds(engine: SimulationEngine) -> None:
    """Cap initial speeds so the starting state is dynamically feasible.

    Sampled speeds can be inconsistent with sampled gaps (a fast
    follower close behind a slow leader cannot avoid a crash no matter
    what it does).  Walking each lane front to back (equal longitudes
    in the order the vehicles were added), each vehicle's speed is
    limited to the Krauss safe speed for its actual leader, so episodes
    never begin in a doomed configuration.
    """
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


def replenish_traffic(engine: SimulationEngine, rng: np.random.Generator,
                      density_per_km: float = constants.DENSITY_PER_KM) -> list[Vehicle]:
    """Inject vehicles at the road origin to hold a target density.

    Open roads drain as vehicles retire at the far end; recorded scenes
    (the REAL dataset substitute) need steady inflow like a real highway
    segment.  A vehicle enters on a lane only when the entry area is
    clear enough for a safe merge.
    """
    road = engine.road
    deficit = int(round(density_per_km * road.length / 1000.0)) - len(engine.vehicles)
    created: list[Vehicle] = []
    if deficit <= 0:
        return created
    lanes = list(range(1, road.num_lanes + 1))
    rng.shuffle(lanes)
    for lane in lanes[:deficit]:
        leader = engine.leader_in_lane(lane, 0.0)
        clear = leader.rear if leader is not None else road.length
        if clear < constants.VEHICLE_LENGTH + 10.0:
            continue
        profile = random_profile(rng, road)
        # Enter no faster than is safe for the available headway.
        v_entry = min(profile.desired_speed,
                      leader.v + max(clear - profile.min_gap, 0.0) / 2.0 if leader else road.v_max)
        v_entry = road.clamp_speed(v_entry)
        vehicle = Vehicle(
            vid=f"in{engine.step_count}_{lane}",
            state=VehicleState(lat=lane, lon=0.0, v=v_entry),
            profile=profile,
        )
        engine.add_vehicle(vehicle)
        created.append(vehicle)
    return created


def insert_autonomous_vehicle(engine: SimulationEngine, rng: np.random.Generator,
                              vid: str = "av") -> Vehicle:
    """Place the AV at the road origin on a random lane (paper setup)."""
    road = engine.road
    lane = int(rng.integers(1, road.num_lanes + 1))
    vehicle = Vehicle(
        vid=vid,
        state=VehicleState(lat=lane, lon=0.0, v=float(rng.uniform(0.5, 0.8) * road.v_max)),
        is_autonomous=True,
    )
    return engine.add_vehicle(vehicle)


def fleet_vids(count: int) -> list[str]:
    """Canonical fleet vehicle ids: ``av`` plus zero-padded ``av01``...

    Index 0 is always ``"av"`` (the single-AV id), so an M=1 fleet is
    indistinguishable from the classic episode.  Later ids are
    zero-padded to a fixed width so lexicographic order equals spawn
    order -- the engine's sorted-vid iteration then visits the fleet in
    canonical order regardless of insertion sequence.
    """
    if count <= 1:
        return ["av"]
    width = len(str(count - 1))
    return ["av"] + [f"av{index:0{width}d}" for index in range(1, count)]


def insert_autonomous_fleet(engine: SimulationEngine, rng: np.random.Generator,
                            count: int = 1) -> list[Vehicle]:
    """Place ``count`` AVs: the first exactly like the single-AV setup.

    AV 0 spawns at the road origin via :func:`insert_autonomous_vehicle`
    with the same RNG draws, so an M=1 fleet consumes the identical
    stream as :func:`build_episode`.  Each additional AV k draws the
    same (lane, speed) pair shape and starts at ``k * length / count``;
    conventional vehicles already inside its clearance window are
    discarded deterministically (no RNG, no retirement bookkeeping).
    """
    road = engine.road
    vids = fleet_vids(count)
    fleet = [insert_autonomous_vehicle(engine, rng, vid=vids[0])]
    for index in range(1, count):
        lane = int(rng.integers(1, road.num_lanes + 1))
        velocity = float(rng.uniform(0.5, 0.8) * road.v_max)
        lon = index * road.length / count
        columns = engine.columns
        near = np.flatnonzero((columns.lane == lane) & ~columns.is_autonomous
                              & (np.abs(columns.lon - lon) <= SPAWN_CLEARANCE))
        rows = engine.active_vehicles()
        engine.discard_vehicles([rows[row].vid for row in near.tolist()])
        fleet.append(engine.add_vehicle(Vehicle(
            vid=vids[index],
            state=VehicleState(lat=lane, lon=lon, v=velocity),
            is_autonomous=True,
        )))
    return fleet


def build_fleet_episode(seed: int, road: Road | None = None,
                        density_per_km: float = constants.DENSITY_PER_KM,
                        car_following=None, num_avs: int = 1
                        ) -> tuple[SimulationEngine, list[Vehicle]]:
    """Seeded episode with an M-vehicle autonomous fleet.

    :func:`build_episode` is this function at ``num_avs=1``.
    """
    rng = default_generator(seed)
    engine = SimulationEngine(road=road or Road(), car_following=car_following,
                              rng=rng)
    populate_traffic(engine, rng, density_per_km, keep_clear=(0.0, SPAWN_CLEARANCE))
    fleet = insert_autonomous_fleet(engine, rng, num_avs)
    return engine, fleet


def build_episode(seed: int, road: Road | None = None,
                  density_per_km: float = constants.DENSITY_PER_KM,
                  car_following=None) -> tuple[SimulationEngine, Vehicle]:
    """Create a fully initialized episode: populated road plus the AV.

    Every episode is seeded so experiments are reproducible while each
    episode differs (the paper randomizes episode initialization).
    ``car_following`` overrides the default Krauss model.
    """
    engine, (autonomous,) = build_fleet_episode(
        seed, road=road, density_per_km=density_per_km,
        car_following=car_following)
    return engine, autonomous
