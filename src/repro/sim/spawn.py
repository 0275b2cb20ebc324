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
from .vehicle import DriverProfile, Vehicle, VehicleState

__all__ = ["random_profile", "populate_traffic", "insert_autonomous_vehicle",
           "build_episode", "fleet_vids", "insert_autonomous_fleet",
           "build_fleet_episode"]

#: Clear space (m) kept around the AV spawn point so episodes start fair.
SPAWN_CLEARANCE = 30.0


def random_profile(rng: np.random.Generator, road: Road) -> DriverProfile:
    """Draw a heterogeneous human-driver profile.

    Desired speeds spread around 80-100% of the limit; headways, gaps
    and politeness vary so lane-change pressure differs per driver.
    """
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
                     keep_clear: tuple[int, float, float] | None = None) -> list[Vehicle]:
    """Fill an empty road with conventional vehicles at the target density.

    Vehicles are spread across lanes with jittered spacing and speeds
    near their desired speed.  ``keep_clear=(lane, lon_min, lon_max)``
    reserves space (on every lane around the AV spawn) so insertion of
    the autonomous vehicle cannot start inside a platoon.

    A lane's slots come out in increasing longitude (the jitter is under
    half the spacing), so a candidate can only overlap the vehicle last
    placed in its lane; raises ``ValueError`` on a populated engine,
    whose vehicles this placement would not see.
    """
    if engine.vehicles:
        raise ValueError("populate_traffic needs an empty engine")
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
            if keep_clear is not None and keep_clear[1] <= lon <= keep_clear[2]:
                continue
            profile = random_profile(rng, road)
            velocity = float(np.clip(profile.desired_speed * rng.uniform(0.7, 1.0),
                                     road.v_min, road.v_max))
            # Skip placements that would overlap the previous vehicle.
            if previous is not None and lon - previous < min_space:
                continue
            created.append(engine.add_vehicle(Vehicle(
                vid=f"cv{counter}",
                state=VehicleState(lat=lane, lon=lon, v=velocity),
                profile=profile,
            )))
            previous = lon
            counter += 1
    _equilibrate_speeds(engine, created)
    return created


def _equilibrate_speeds(engine: SimulationEngine, vehicles: list[Vehicle]) -> None:
    """Cap initial speeds so the starting state is dynamically feasible.

    Sampled speeds can be inconsistent with sampled gaps (a fast
    follower close behind a slow leader cannot avoid a crash no matter
    what it does).  Walking each lane front to back, each vehicle's
    speed is limited to the Krauss safe speed for its actual leader, so
    episodes never begin in a doomed configuration.
    """
    by_lane: dict[int, list[Vehicle]] = {}
    for vehicle in vehicles:
        by_lane.setdefault(vehicle.lane, []).append(vehicle)
    for lane_vehicles in by_lane.values():
        lane_vehicles.sort(key=lambda vehicle: -vehicle.lon)
        for leader, follower in zip(lane_vehicles[:-1], lane_vehicles[1:]):
            gap = max(follower.gap_to(leader) - follower.profile.min_gap, 0.0)
            brake = follower.profile.comfort_decel
            tau = 1.0
            v_safe = leader.v + (gap - leader.v * tau) / ((follower.v + leader.v) / (2.0 * brake) + tau)
            v_safe = max(v_safe, 0.0)
            if follower.v > v_safe:
                follower.state = VehicleState(follower.lane, follower.lon, v_safe)
                engine.history[follower.vid][-1] = follower.state


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
        v_entry = float(np.clip(v_entry, road.v_min, road.v_max))
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
        for other in list(engine.vehicles.values()):
            if other.lane == lane and not other.is_autonomous \
                    and abs(other.lon - lon) <= SPAWN_CLEARANCE:
                engine.discard_vehicle(other.vid)
        fleet.append(engine.add_vehicle(Vehicle(
            vid=vids[index],
            state=VehicleState(lat=lane, lon=lon, v=velocity),
            is_autonomous=True,
        )))
    return fleet


def build_fleet_episode(seed: int, road: Road | None = None,
                        density_per_km: float = constants.DENSITY_PER_KM,
                        history_length: int = constants.HISTORY_STEPS + 1,
                        car_following=None, reference: bool = False,
                        num_avs: int = 1
                        ) -> tuple[SimulationEngine, list[Vehicle]]:
    """Seeded episode with an M-vehicle autonomous fleet.

    For ``num_avs=1`` this is exactly :func:`build_episode` (same RNG
    consumption, same world, same AV) -- the M=1 bit-compat contract
    the fleet equivalence suite pins down.
    """
    rng = default_generator(seed)
    engine = SimulationEngine(road=road or Road(), car_following=car_following,
                              rng=rng, history_length=history_length,
                              reference=reference)
    populate_traffic(engine, rng, density_per_km,
                     keep_clear=(0, 0.0, SPAWN_CLEARANCE))
    fleet = insert_autonomous_fleet(engine, rng, num_avs)
    return engine, fleet


def build_episode(seed: int, road: Road | None = None,
                  density_per_km: float = constants.DENSITY_PER_KM,
                  history_length: int = constants.HISTORY_STEPS + 1,
                  car_following=None, reference: bool = False
                  ) -> tuple[SimulationEngine, Vehicle]:
    """Create a fully initialized episode: populated road plus the AV.

    Every episode is seeded so experiments are reproducible while each
    episode differs (the paper randomizes episode initialization).
    ``car_following`` overrides the default Krauss model; ``reference``
    selects the scalar engine path (for equivalence testing).
    """
    rng = default_generator(seed)
    engine = SimulationEngine(road=road or Road(), car_following=car_following,
                              rng=rng, history_length=history_length,
                              reference=reference)
    lane_guess = None
    populate_traffic(engine, rng, density_per_km,
                     keep_clear=(lane_guess or 0, 0.0, SPAWN_CLEARANCE))
    autonomous = insert_autonomous_vehicle(engine, rng)
    return engine, autonomous
