"""Traffic population: seed a road with heterogeneous conventional traffic.

Reproduces the paper's episode setup: a straight six-lane road populated
at a target density (180 veh/km by default), with one autonomous vehicle
initialized at the road origin on a random lane.  Each conventional
driver gets randomized IDM/Krauss parameters so the traffic is as
heterogeneous as NGSIM-like real data.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import astuple
from functools import lru_cache

import numpy as np

from ..seeding import default_generator
from . import constants
from .engine import SimulationEngine
from .road import Road
from .vehicle import DriverProfile, ProfileArrays, Vehicle, VehicleColumns, VehicleState

__all__ = ["random_profile", "populate_traffic", "insert_autonomous_vehicle",
           "build_episode", "fleet_vids", "build_fleet_episode"]

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
    the slots that reach the window are contiguous and two bisections
    over the slot indices find them.  No window, or none reaching it,
    gives the empty run ``[per_lane, per_lane)``.
    """
    if keep_clear is None:
        return per_lane, per_lane
    margin = 1e-9 * (top + 1.0)
    slots = range(per_lane)
    first = bisect_left(slots, True, key=lambda slot: min(
        offset + (slot + 0.25) * spacing + margin, top) >= keep_clear[0])
    stop = bisect_left(slots, True, key=lambda slot: max(
        offset + (slot - 0.25) * spacing - margin, 0.0) > keep_clear[1])
    if first >= stop:
        return per_lane, per_lane
    return first, stop


def _placed(lane: np.ndarray, lon: np.ndarray, min_space: float) -> np.ndarray:
    """Rows kept by the overlap skip (rows lane by lane, in increasing
    longitude): a candidate closer than ``min_space`` to the last vehicle
    placed in its lane is skipped.

    A row at least ``min_space`` ahead of the row before it is always
    placed, since the last vehicle placed is no further ahead than that
    row; only the rows closer than that to their predecessor are walked.
    """
    placed = np.ones(len(lon), dtype=bool)
    close = (lane[1:] == lane[:-1]) & (lon[1:] - lon[:-1] < min_space)
    for row in (np.flatnonzero(close) + 1).tolist():
        last = row - 1
        while not placed[last]:
            last -= 1
        if lon[row] - lon[last] < min_space:
            placed[row] = False
    return placed


def populate_traffic(engine: SimulationEngine, rng: np.random.Generator,
                     density_per_km: float = constants.DENSITY_PER_KM,
                     keep_clear: tuple[float, float] | None = None) -> list[Vehicle]:
    """Fill an empty road with conventional vehicles at the target density.

    Vehicles are spread across lanes with jittered spacing and speeds
    near their desired speed.  ``keep_clear=(lon_min, lon_max)``
    reserves that stretch on every lane, so insertion of the autonomous
    vehicle cannot start inside a platoon.  Raises ``ValueError`` on a
    populated engine, whose vehicles the placement would not see.  The
    engine adopts every lane's vehicles in one batch.
    """
    if engine.vehicles:
        raise ValueError("populate_traffic needs an empty engine")
    lane, rows = _traffic(engine.road, rng, density_per_km, keep_clear)
    return engine.add_vehicles(_cv_ids(len(lane)), _columns(lane, rows))


def _traffic(road: Road, rng: np.random.Generator, density_per_km: float,
             keep_clear: tuple[float, float] | None) -> tuple[np.ndarray, np.ndarray]:
    """Draw, place and equilibrate :func:`populate_traffic`'s vehicles.

    Returns each vehicle's lane and its row of longitude, speed and the
    eight profile fields, in the order the engine adopts them.

    Each slot draws the ten uniforms of ``_SPAWN_BOUNDS`` in order,
    except that a slot landing in ``keep_clear`` stops after its
    jitter.  Slots that cannot reach the window draw as one
    ``(n, 10)`` block, which consumes the stream exactly as the
    slot-by-slot draws would; the few that can draw one at a time.
    Once every lane has drawn, longitudes, profiles, speeds and the
    overlap skip are computed for all lanes at once.  A lane's slots
    come out in increasing longitude (the jitter is under half the
    spacing), so a candidate can only overlap the vehicle last placed
    in its lane.
    """
    total = int(round(density_per_km * road.length / 1000.0))
    per_lane = max(total // road.num_lanes, 1)
    spacing = road.length / per_lane
    min_space = constants.VEHICLE_LENGTH + 1.0
    top = road.length - 1.0
    offsets: list[float] = []
    units: list[np.ndarray] = []
    landed: list[int] = []   # slots (lane-major) that landed in keep_clear
    for lane in range(road.num_lanes):
        offset = rng.uniform(0.0, spacing)
        offsets.append(offset)
        first, stop = _window_slots(offset, spacing, per_lane, top, keep_clear)
        units.append(rng.random((first, _DRAWS)))
        for slot in range(first, stop):
            jitter = rng.random()
            if keep_clear[0] <= _slot_lon(offset, slot, spacing, top, jitter) <= keep_clear[1]:
                landed.append(lane * per_lane + slot)
                continue
            units.append(np.append(jitter, rng.random(_DRAWS - 1))[np.newaxis])
        units.append(rng.random((per_lane - stop, _DRAWS)))
    unit = np.concatenate(units)
    kept = np.ones(road.num_lanes * per_lane, dtype=bool)
    kept[landed] = False
    lanes = np.repeat(np.arange(1, road.num_lanes + 1), per_lane)[kept]
    slots = np.tile(np.arange(per_lane), road.num_lanes)[kept]
    offset = np.repeat(offsets, per_lane)[kept]
    lon = _slot_lon(offset, slots, spacing, top, unit[:, 0])
    values = _LOW + _SPAN * unit
    values[:, 1] *= road.v_max
    velocity = np.minimum(np.maximum(values[:, 1] * values[:, 9], road.v_min),
                          road.v_max)
    placed = _placed(lanes, lon, min_space)
    lanes, lon, values = lanes[placed], lon[placed], values[placed]
    speed = _equilibrated(lanes, lon, lon - constants.VEHICLE_LENGTH,
                          values[:, 3], values[:, 5],   # min_gap, comfort_decel
                          velocity[placed])
    return lanes, np.column_stack((lon, speed, values[:, _PROFILE]))


def _columns(lane: np.ndarray, rows: np.ndarray,
             is_autonomous: bool | np.ndarray = False) -> VehicleColumns:
    """Vehicle columns from lanes and ``_traffic``'s rows."""
    return VehicleColumns(ProfileArrays(*rows[:, 2:].T), lane=lane, lon=rows[:, 0],
                          v=rows[:, 1], is_autonomous=is_autonomous)


@lru_cache(maxsize=8)
def _cv_ids(count: int) -> tuple[str, ...]:
    """The ids of ``count`` spawned conventional vehicles, ``cv0`` on.

    Cached: formatting a paper road's 540 ids costs about as much as
    equilibrating its speeds.
    """
    return tuple(f"cv{index}" for index in range(count))


def _equilibrated(lane: np.ndarray, lon: np.ndarray, rear: np.ndarray,
                  min_gap: np.ndarray, comfort_decel: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
    """Initial speeds capped so the starting state is dynamically feasible.

    Sampled speeds can be inconsistent with sampled gaps (a fast
    follower close behind a slow leader cannot avoid a crash no matter
    what it does).  In each lane, front to back (equal longitudes in
    row order), each vehicle's speed is limited to the Krauss safe speed
    for its actual leader, so episodes never begin in a doomed
    configuration.

    A follower's cap depends on its own sampled speed and its leader's
    capped speed.  The first round caps every follower against its
    leader's sampled speed; each later round recomputes, from the
    sampled speed, the followers whose leader changed in the round
    before.  The rounds end when nothing changes, which leaves every
    speed at the cap its capped leader sets: the front-to-back walk's
    result, since the chain from each lane's front fixes it.
    """
    order = np.lexsort((-lon, lane))   # stable: ties stay in row order
    lane, lon, rear, min_gap, comfort_decel, sampled = (
        column[order] for column in (lane, lon, rear, min_gap, comfort_decel, v))
    # Row k's leader is row k - 1; its gap and braking term do not depend
    # on any speed.
    gap = np.concatenate(([0.0], rear[:-1] - lon[1:] - min_gap[1:]))
    gap = np.where(0.0 > gap, 0.0, gap)     # max(gap, 0.0)
    twice_brake = 2.0 * comfort_decel
    capped = sampled.copy()
    followers = np.flatnonzero(lane[1:] == lane[:-1]) + 1
    has_leader = np.zeros(len(capped) + 1, dtype=bool)
    has_leader[followers] = True
    tau = 1.0
    while followers.size:
        leader_v, own_v = capped[followers - 1], sampled[followers]
        v_safe = leader_v + (gap[followers] - leader_v * tau) / (
            (own_v + leader_v) / twice_brake[followers] + tau)
        v_safe = np.where(0.0 > v_safe, 0.0, v_safe)
        cap = np.where(own_v > v_safe, v_safe, own_v)
        moved = followers[cap != capped[followers]] + 1
        capped[followers] = cap
        followers = moved[has_leader[moved]]
    speed = np.empty_like(capped)
    speed[order] = capped
    return speed


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


def _autonomous_draw(rng: np.random.Generator, road: Road) -> tuple[int, float]:
    """An AV's random lane and initial speed, in stream order."""
    lane = int(rng.integers(1, road.num_lanes + 1))
    return lane, float(rng.uniform(0.5, 0.8) * road.v_max)


def insert_autonomous_vehicle(engine: SimulationEngine, rng: np.random.Generator,
                              vid: str = "av") -> Vehicle:
    """Place the AV at the road origin on a random lane (paper setup)."""
    lane, velocity = _autonomous_draw(rng, engine.road)
    return engine.add_vehicle(Vehicle(
        vid=vid, state=VehicleState(lat=lane, lon=0.0, v=velocity),
        is_autonomous=True))


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


def build_fleet_episode(seed: int, road: Road | None = None,
                        density_per_km: float = constants.DENSITY_PER_KM,
                        car_following=None, num_avs: int = 1
                        ) -> tuple[SimulationEngine, list[Vehicle]]:
    """Seeded episode with an M-vehicle autonomous fleet.

    The traffic is :func:`populate_traffic`'s with ``keep_clear`` the
    first ``SPAWN_CLEARANCE`` metres, and AV 0 draws and starts exactly
    as :func:`insert_autonomous_vehicle` places it; the engine adopts
    both in one batch.  Each additional AV k draws the same (lane,
    speed) pair shape and starts at ``k * length / num_avs``;
    conventional vehicles already inside its clearance window are
    discarded deterministically (no RNG, no retirement bookkeeping).
    :func:`build_episode` is this function at ``num_avs=1``.
    """
    rng = default_generator(seed)
    engine = SimulationEngine(road=road or Road(), car_following=car_following,
                              rng=rng)
    road = engine.road
    lane, rows = _traffic(road, rng, density_per_km, (0.0, SPAWN_CLEARANCE))
    av_lane, velocity = _autonomous_draw(rng, road)
    count = len(lane)
    vids = fleet_vids(num_avs)
    fleet = engine.add_vehicles([*_cv_ids(count), vids[0]], _columns(
        np.append(lane, av_lane),
        np.vstack((rows, (0.0, velocity, *astuple(DriverProfile())))),
        is_autonomous=np.arange(count + 1) == count))[count:]
    for index in range(1, num_avs):
        lane, velocity = _autonomous_draw(rng, road)
        lon = index * road.length / num_avs
        columns = engine.columns
        near = np.flatnonzero((columns.lane == lane) & ~columns.is_autonomous
                              & (np.abs(columns.lon - lon) <= SPAWN_CLEARANCE))
        handles = engine.active_vehicles()
        engine.discard_vehicles([handles[row].vid for row in near.tolist()])
        fleet.append(engine.add_vehicle(Vehicle(
            vid=vids[index],
            state=VehicleState(lat=lane, lon=lon, v=velocity),
            is_autonomous=True,
        )))
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
