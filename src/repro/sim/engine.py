"""Discrete-time microscopic traffic simulation engine (SUMO substitute).

The engine advances all vehicles synchronously in 0.5 s steps.  Each
step:

1. externally controlled vehicles (the AV) receive a maneuver via
   :meth:`SimulationEngine.set_maneuver`;
2. every conventional vehicle picks a lane-change via MOBIL and an
   acceleration via its car-following model, all based on the state at
   time ``t``;
3. states advance with the Eq. 18 kinematics, lane changes are
   instantaneous single-lane hops (paper restriction 2);
4. collisions (overlap in a lane, or driving off the road) are detected
   and reported;
5. vehicles that pass the road end are retired with their finish time.

Per-vehicle state history is retained for the perception module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import numpy as np

from . import constants
from .carfollowing import CarFollowingModel, FREE_ROAD_GAP, Krauss, free_road_gap
from .lanechange import MOBIL
from .road import Road
from .spatial import SpatialHash
from .vehicle import ProfileArrays, Vehicle, VehicleState
from ..seeding import resolve_rng

__all__ = ["CollisionEvent", "SimulationEngine", "Maneuver"]

#: Lane-change cooldown for conventional vehicles (steps); 2 s, keeps
#: MOBIL from oscillating between lanes, similar to SUMO's LC holddown.
LANE_CHANGE_COOLDOWN = 4

#: Shared one-element sentinel appended to each lane's id array so
#: out-of-range searchsorted positions resolve to "no neighbor".
_NO_NEIGHBOR = np.array([-1])

#: Shared one-element 0.0 pad: appended to value arrays so gathering
#: with a -1 neighbor index yields the masked-branch substitute value.
_ZERO = np.array([0.0])

#: ``0.5 * DT**2`` prefolded.  DT is a power of two (0.5 s), so every
#: intermediate scaling in both the scalar ``0.5*a*dt*dt`` chain and
#: the folded ``a * _HALF_DT_SQ`` form is exact -- the two are
#: bit-identical.
_HALF_DT_SQ = 0.5 * constants.DT * constants.DT


@dataclass(frozen=True)
class Maneuver:
    """External maneuver command: lane delta in {-1, 0, +1} and acceleration."""

    lane_delta: int
    accel: float


@dataclass(frozen=True)
class CollisionEvent:
    """A detected collision at a time step.

    ``kind`` is ``"crash"`` for vehicle-vehicle overlap and
    ``"boundary"`` for leaving the road laterally.
    """

    step: int
    vehicle_id: str
    other_id: str | None
    kind: str


class SimulationEngine:
    """Owns vehicles and advances the world clock.

    Parameters
    ----------
    road:
        Road geometry and speed limits.
    car_following:
        Model used by conventional vehicles (Krauss by default, matching
        SUMO).
    rng:
        Seeded generator driving stochastic driver imperfection.
    history_length:
        Number of past states retained per vehicle for perception.
    reference:
        When true, always step with the scalar per-vehicle loop.  The
        default vectorized path is bit-identical to it; the reference
        mode exists so equivalence tests (and unusual custom models
        without a batched implementation) can exercise the original
        trajectory-for-trajectory semantics.
    """

    def __init__(self, road: Road | None = None,
                 car_following: CarFollowingModel | None = None,
                 rng: np.random.Generator | None = None,
                 history_length: int = constants.HISTORY_STEPS + 1,
                 reference: bool = False) -> None:
        self.road = road or Road()
        self.car_following = car_following or Krauss()
        self.lane_change = MOBIL(self.car_following)
        self.rng = resolve_rng(rng)
        self.history_length = history_length
        self.reference = reference
        self.step_count = 0
        self.vehicles: dict[str, Vehicle] = {}
        self.history: dict[str, deque[VehicleState]] = {}
        self.collisions: list[CollisionEvent] = []
        self.retired: dict[str, Vehicle] = {}
        self._pending: dict[str, Maneuver] = {}
        # Lane index over the live vehicles for the scalar queries; built
        # on first use, dropped whenever a position or the population
        # changes.
        self._lane_hash: tuple[SpatialHash, list[Vehicle]] | None = None
        # Population generation: bumped on every add/remove/discard.
        # Caches keyed on it (sorted active list, static arrays) are
        # rebuilt only when the vehicle *set* changed, not per call.
        self._generation = 0
        self._active_cache: list[Vehicle] = []
        self._active_generation = -1
        self._static_cache: tuple | None = None
        self._static_generation = -1
        self._soa_cache: tuple | None = None
        self._profile_cache: ProfileArrays | None = None
        self._ego_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._lane_targets = np.arange(1, self.road.num_lanes + 2)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_vehicle(self, vehicle: Vehicle) -> Vehicle:
        """Register a vehicle; raises on duplicate ids or invalid lanes."""
        if vehicle.vid in self.vehicles:
            raise ValueError(f"duplicate vehicle id {vehicle.vid!r}")
        if not self.road.is_valid_lane(vehicle.lane):
            raise ValueError(f"vehicle {vehicle.vid!r} placed on invalid lane {vehicle.lane}")
        vehicle.spawn_time = self.step_count
        self.vehicles[vehicle.vid] = vehicle
        self.history[vehicle.vid] = deque([vehicle.state], maxlen=self.history_length)
        self._population_changed()
        return vehicle

    def remove_vehicle(self, vid: str) -> None:
        """Retire a vehicle (e.g. it finished the road)."""
        vehicle = self.vehicles.pop(vid, None)
        if vehicle is not None:
            self.retired[vid] = vehicle
            self._population_changed()

    def discard_vehicle(self, vid: str) -> None:
        """Drop a vehicle from the world without marking it retired.

        ``retired`` means "finished the road" to the reward/outcome
        code, so taking a crashed fleet AV out of the simulation must
        not go through :meth:`remove_vehicle`.  History is kept so
        perception can still read the final track.
        """
        if self.vehicles.pop(vid, None) is not None:
            self._population_changed()

    def _population_changed(self) -> None:
        self._generation += 1
        self._lane_hash = None
        self._soa_cache = None
        self._profile_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, vid: str) -> Vehicle:
        """Return a live vehicle by id."""
        return self.vehicles[vid]

    def active_vehicles(self) -> list[Vehicle]:
        """Return live vehicles sorted by id for deterministic iteration.

        The sorted list is cached behind the population generation
        counter -- callers must treat it as read-only.
        """
        if self._active_generation != self._generation:
            self._active_cache = [self.vehicles[vid] for vid in sorted(self.vehicles)]
            self._active_generation = self._generation
        return self._active_cache

    def _lanes(self) -> tuple[SpatialHash, list[Vehicle]]:
        """The lane index and the vehicle behind each of its rows.

        Rows are the vehicles in reverse insertion order.  ``lexsort``
        is stable, so an equal-longitude run keeps that order: a leader
        query (first row of the run ahead) returns the last-inserted
        vehicle and a follower query (last row of the run behind) the
        first-inserted one.
        """
        if self._lane_hash is None:
            vehicles = list(reversed(self.vehicles.values()))
            count = len(vehicles)
            lane = np.fromiter((vehicle.state.lat for vehicle in vehicles),
                               dtype=np.int64, count=count)
            lon = np.fromiter((vehicle.state.lon for vehicle in vehicles),
                              dtype=np.float64, count=count)
            self._lane_hash = (SpatialHash(lane, lon, self.road.num_lanes,
                                           self._lane_targets), vehicles)
        return self._lane_hash

    def leader_in_lane(self, lane: int, lon: float) -> Vehicle | None:
        """Nearest vehicle strictly ahead of ``lon`` in ``lane``."""
        index, vehicles = self._lanes()
        row = index.leader(lane, lon)
        return vehicles[row] if row >= 0 else None

    def follower_in_lane(self, lane: int, lon: float) -> Vehicle | None:
        """Nearest vehicle strictly behind ``lon`` in ``lane``."""
        index, vehicles = self._lanes()
        row = index.follower(lane, lon)
        return vehicles[row] if row >= 0 else None

    def leader_of(self, vehicle: Vehicle, lane: int | None = None) -> Vehicle | None:
        """Leader of ``vehicle`` in its own (or a given) lane."""
        return self.leader_in_lane(lane if lane is not None else vehicle.lane,
                                   vehicle.lon)

    def follower_of(self, vehicle: Vehicle, lane: int | None = None) -> Vehicle | None:
        """Follower of ``vehicle`` in its own (or a given) lane."""
        return self.follower_in_lane(lane if lane is not None else vehicle.lane,
                                     vehicle.lon)

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def invalidate_profiles(self) -> None:
        """Drop the cached driver-parameter arrays.

        The vectorized step reads :class:`DriverProfile` fields through
        a struct-of-arrays view cached until the population changes.
        Code that mutates a live vehicle's profile mid-run (e.g. the
        synthetic-trajectory slowdown events) must call this so the next
        step sees the new parameters.
        """
        self._profile_cache = None

    def set_maneuver(self, vid: str, lane_delta: int, accel: float) -> None:
        """Command an externally controlled vehicle for the next step.

        Accelerations are clipped to the paper's [-a', a'] restriction;
        lane deltas must be in {-1, 0, +1} (restriction 2).
        """
        if lane_delta not in (-1, 0, 1):
            raise ValueError("lane_delta must be -1, 0 or +1")
        accel = min(max(accel, -constants.A_MAX), constants.A_MAX)
        self._pending[vid] = Maneuver(lane_delta, accel)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> list[CollisionEvent]:
        """Advance the world by one 0.5 s step; return new collisions.

        Dispatches to the vectorized struct-of-arrays path, falling back
        to the scalar reference loop when ``reference=True`` or when a
        custom model does not provide the batched interface.  The two
        paths produce bit-identical trajectories, collision events, and
        RNG stream consumption.
        """
        if self.reference or not self._vectorizable():
            return self._step_reference()
        return self._step_vectorized()

    def _vectorizable(self) -> bool:
        return (hasattr(self.car_following, "acceleration_batch")
                and hasattr(self.lane_change, "evaluate_batch"))

    def _dawdle_noise(self, count: int) -> np.ndarray | None:
        """Draw the per-step dawdle noise block: one (u_hit, u_mag) pair per
        eligible conventional vehicle, in sorted-vid order.

        A single block draw (instead of data-dependent sequential draws)
        keeps the RNG stream consumption identical between the reference
        and vectorized paths: ``Generator.random((n, 2))`` consumes the
        same stream as 2n sequential ``random()`` calls.
        """
        return self.rng.random((count, 2)) if count else None

    def _step_reference(self) -> list[CollisionEvent]:
        vehicles = self.active_vehicles()
        noise = self._dawdle_noise(sum(
            1 for vehicle in vehicles
            if not vehicle.is_autonomous and vehicle.vid not in self._pending
            and vehicle.profile.imperfection > 0.0))
        noise_row = 0

        decisions: dict[str, Maneuver] = {}
        for vehicle in vehicles:
            if vehicle.vid in self._pending:
                decisions[vehicle.vid] = self._pending[vehicle.vid]
            elif not vehicle.is_autonomous:
                pair = None
                if vehicle.profile.imperfection > 0.0:
                    pair = noise[noise_row]
                    noise_row += 1
                decisions[vehicle.vid] = self._conventional_decision(vehicle, pair)
            else:
                decisions[vehicle.vid] = Maneuver(0, 0.0)

        new_collisions = self._apply(decisions)
        self._pending.clear()
        self.step_count += 1
        return new_collisions

    def _conventional_decision(self, vehicle: Vehicle,
                               noise: np.ndarray | None = None) -> Maneuver:
        leader = self.leader_of(vehicle)
        lane_delta = 0
        if vehicle.cooldown > 0:
            vehicle.cooldown -= 1
        else:
            left = self._adjacent(vehicle, -1)
            right = self._adjacent(vehicle, +1)
            lane_delta = self.lane_change.decide(vehicle, leader, left, right)
            if lane_delta != 0:
                vehicle.cooldown = LANE_CHANGE_COOLDOWN
                leader = self.leader_of(vehicle, vehicle.lane + lane_delta)

        gap = vehicle.gap_to(leader) if leader is not None else free_road_gap()
        leader_v = leader.v if leader is not None else 0.0
        accel = self.car_following.acceleration(vehicle.v, leader_v, gap, vehicle.profile)
        # Seeded driver imperfection (Krauss sigma): occasionally dawdle.
        # The (u_hit, u_mag) pair comes from the per-step block draw.
        if noise is not None and float(noise[0]) < vehicle.profile.imperfection:
            accel -= float(noise[1]) * 0.5 * vehicle.profile.max_accel
        accel = min(max(accel, -constants.A_MAX), constants.A_MAX)
        accel = self._emergency_brake(vehicle, leader, accel)
        return Maneuver(lane_delta, accel)

    # ------------------------------------------------------------------
    # vectorized stepping
    # ------------------------------------------------------------------
    def _static_arrays(self, vehicles: list[Vehicle]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray, bool]:
        """Lengths, autonomy flags (and their negation / any-AV flag),
        and per-vehicle velocity floors, cached behind the population
        generation counter."""
        if self._static_generation != self._generation:
            count = len(vehicles)
            is_av = np.fromiter((vehicle.is_autonomous for vehicle in vehicles),
                                dtype=bool, count=count)
            self._static_cache = (
                np.fromiter((vehicle.length for vehicle in vehicles),
                            dtype=np.float64, count=count),
                is_av,
                np.where(is_av, self.road.v_min, 0.0),
                ~is_av,
                bool(is_av.any()),
            )
            self._static_generation = self._generation
        return self._static_cache

    def _step_vectorized(self) -> list[CollisionEvent]:
        """Advance all vehicles on struct-of-arrays state.

        Every formula below transcribes the scalar path with identical
        operation order (see docs/performance.md for the methodology),
        so positions, velocities, lanes, cooldowns, collision events,
        and RNG draws match the reference loop bit for bit.
        """
        new_events: list[CollisionEvent] = []
        # SoA carryover: the arrays written at the end of the previous
        # step double as this step's input, skipping the object gather.
        # Valid only while the population is unchanged (the add/remove
        # paths null it) and no external code replaced a state or
        # cooldown in between (checked by object identity / value below).
        cached = self._soa_cache
        if cached is not None \
                and [vehicle.state for vehicle in cached[0]] == cached[1] \
                and [vehicle.cooldown for vehicle in cached[0]] == cached[6]:
            vehicles, _, lane, lon, v, cooldown, _, deques = cached
            count = len(vehicles)
        else:
            vehicles = self.active_vehicles()
            count = len(vehicles)
            if count == 0:
                self._pending.clear()
                self.step_count += 1
                return new_events
            lane = np.fromiter((vehicle.state.lat for vehicle in vehicles),
                               dtype=np.int64, count=count)
            lon = np.fromiter((vehicle.state.lon for vehicle in vehicles),
                              dtype=np.float64, count=count)
            v = np.fromiter((vehicle.state.v for vehicle in vehicles),
                            dtype=np.float64, count=count)
            cooldown = np.fromiter((vehicle.cooldown for vehicle in vehicles),
                                   dtype=np.int64, count=count)
            deques = [self.history[vehicle.vid] for vehicle in vehicles]
        length, is_av, v_floor, not_av, has_av = self._static_arrays(vehicles)
        profiles = self._profile_cache
        if profiles is None:
            profiles = ProfileArrays.from_profiles(
                vehicle.profile for vehicle in vehicles)
            self._profile_cache = profiles
        rear = lon - length

        lane_delta = np.zeros(count, dtype=np.int64)
        cv_changers = False
        av_changers = False
        any_delta = False
        if self._pending:
            accel = np.zeros(count)
            pending = np.zeros(count, dtype=bool)
            for row, vehicle in enumerate(vehicles):
                maneuver = self._pending.get(vehicle.vid)
                if maneuver is not None:
                    pending[row] = True
                    lane_delta[row] = maneuver.lane_delta
                    accel[row] = maneuver.accel
                    if maneuver.lane_delta != 0:
                        any_delta = True
                        if not vehicle.is_autonomous:
                            cv_changers = True
                        else:
                            av_changers = True
            conventional = ~(is_av | pending)
            all_conventional = False
            may_off_road = True
        else:
            # No external commands: only MOBIL decides, and it never
            # selects an invalid lane, so the boundary check is dead.
            # With no AVs either (the common traffic-generation case),
            # every per-row mask below merges with an all-True array --
            # all_conventional lets those merges collapse to no-ops.
            accel = None
            conventional = not_av
            all_conventional = not has_av
            may_off_road = False

        # One lane-sorted pass answers every neighbor query of the step:
        # own-lane leaders plus both adjacent-lane leader/follower pairs.
        lanes = SpatialHash(lane, lon, self.road.num_lanes, self._lane_targets)
        leaders3, followers3 = lanes.neighbors(
            np.concatenate((lane, lane - 1, lane + 1)),
            np.concatenate((lon, lon, lon)))
        own_leader = leaders3[:count]

        # Car-following inputs vs the own-lane leader.  The trailing 0.0
        # sentinel makes a -1 "no neighbor" index gather an exact 0.0 --
        # the same value the masked branches would substitute -- so the
        # safe-index np.where dance disappears.  The acceleration itself
        # is computed inside the stacked MOBIL call when lane changes are
        # being decided (the common case), standalone otherwise; for the
        # few vehicles that end up changing lane, the affected rows are
        # recomputed against the target-lane leader below.
        cf_has = own_leader >= 0
        v_ext = np.concatenate((v, _ZERO))
        rear_ext = np.concatenate((rear, _ZERO))
        cf_leader_v = v_ext[own_leader]
        cf_gap = np.where(cf_has, rear_ext[own_leader] - lon, FREE_ROAD_GAP)

        # MOBIL lane-change decisions for CVs off cooldown, both
        # directions evaluated in one concatenated [left; right] batch.
        everyone_decides = False
        if cooldown.any():
            if all_conventional:
                on_cooldown = cooldown > 0
                deciding = ~on_cooldown
            else:
                on_cooldown = conventional & (cooldown > 0)
                deciding = conventional & ~on_cooldown
            cooldown = np.where(on_cooldown, cooldown - 1, cooldown)
        else:
            # No one is on cooldown: the decrement is a no-op and every
            # conventional vehicle gets to decide.
            deciding = conventional
            everyone_decides = all_conventional
        if everyone_decides or deciding.any():
            side_leader = leaders3[count:]
            side_follower = followers3[count:]
            has_leader = side_leader >= 0
            has_follower = side_follower >= 0
            cache = self._ego_cache
            if cache is None or cache[0].shape[0] != count:
                rows = np.arange(count)
                cache = (rows, np.concatenate((rows, rows)))
                self._ego_cache = cache
            rows, ego = cache
            lon_ext = np.concatenate((lon, _ZERO))
            lon2 = np.concatenate((lon, lon))
            leader_rear = rear_ext[side_leader]
            incentive, cf_accel = self.lane_change.evaluate_batch(
                v[ego], rear[ego], profiles, ego, side_follower,
                has_leader, v_ext[side_leader], leader_rear - lon2, leader_rear,
                has_follower, v_ext[side_follower], lon_ext[side_follower],
                rows, v, cf_leader_v, cf_gap)
            decided = self.lane_change.decide_batch(
                incentive[:count], incentive[count:],
                profiles.lane_change_threshold,
                lane > 1, lane < self.road.num_lanes)
            if everyone_decides:
                lane_delta = decided
                changed = decided != 0
            else:
                lane_delta = np.where(deciding, decided, lane_delta)
                changed = deciding & (lane_delta != 0)
            changed_rows = changed.nonzero()[0]
            if changed_rows.size:
                cv_changers = True
                any_delta = True
                cooldown = np.where(changed, LANE_CHANGE_COOLDOWN, cooldown)
                offset = np.where(lane_delta[changed_rows] == -1, 0, count)
                new_leader = side_leader[changed_rows + offset]
                has = new_leader >= 0
                leader_v = v_ext[new_leader]
                gap = np.where(has, rear_ext[new_leader] - lon[changed_rows],
                               FREE_ROAD_GAP)
                cf_leader_v[changed_rows] = leader_v
                cf_gap[changed_rows] = gap
                cf_accel[changed_rows] = self.car_following.acceleration_batch(
                    v[changed_rows], leader_v, gap, profiles.view(changed_rows))
        else:
            cf_accel = self.car_following.acceleration_batch(
                v, cf_leader_v, cf_gap, profiles)

        # Seeded driver imperfection: same block draw as _step_reference.
        if all_conventional:
            eligible = profiles.imperfect
            all_eligible = profiles.fully_imperfect
        else:
            eligible = conventional & profiles.imperfect
            all_eligible = bool(eligible.all())
        noise = self._dawdle_noise(
            count if all_eligible else int(np.count_nonzero(eligible)))
        if noise is not None:
            if all_eligible:
                # Common dense-traffic case: every row draws, so the
                # gather/scatter pair degenerates to whole-array ops
                # (rows with no hit subtract an exact 0.0 -- a no-op).
                hit = noise[:, 0] < profiles.imperfection
                reduction = np.where(
                    hit, noise[:, 1] * profiles.half_max_accel, 0.0)
                cf_accel = cf_accel - reduction
            else:
                hit = noise[:, 0] < profiles.imperfection[eligible]
                reduction = np.where(
                    hit, noise[:, 1] * profiles.half_max_accel[eligible], 0.0)
                cf_accel[eligible] = cf_accel[eligible] - reduction

        cf_accel = np.minimum(np.maximum(cf_accel, -constants.A_MAX), constants.A_MAX)

        # Emergency braking envelope against the car-following leader.
        # The no-leader sentinel gap (1e6 m) keeps ``required`` far below
        # A_MAX, so those rows disengage without an explicit has-leader
        # term in the mask.
        closing = v - cf_leader_v
        engaged = (cf_gap > 0.0) & (closing > 0.0)
        effective_gap = np.maximum(cf_gap - closing * constants.DT - 0.3, 0.1)
        required = closing * closing / (2.0 * effective_gap)
        danger = engaged & (required > constants.A_MAX)
        if danger.any():
            cf_accel = np.where(
                danger, -np.minimum(required, constants.EMERGENCY_DECEL),
                cf_accel)
        if all_conventional:
            accel = cf_accel
        elif accel is None:
            accel = np.where(conventional, cf_accel, 0.0)
        else:
            accel = np.where(conventional, cf_accel, accel)

        # Synchronous lane-change conflicts (see _resolve_lane_conflicts
        # for the scalar semantics): AV-vs-AV arbitration runs first --
        # an AV lane change aborts only when it overlaps another AV's
        # claim, never a CV's -- then CV changers abort, in sorted-vid
        # order, against keeper claims and the AVs' final targets.
        target = lane + lane_delta if any_delta else lane
        if cv_changers or av_changers:
            predicted = lon + v * constants.DT + accel * _HALF_DT_SQ
            claim_lo = predicted - length - 1.0
            claim_hi = predicted + 1.0
        if av_changers:
            av_mover = (lane_delta != 0) & is_av
            av_keeper = is_av & ~av_mover
            av_keeper_claims: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            av_extra: dict[int, list[tuple[float, float]]] = {}
            for row in np.flatnonzero(av_mover):
                lane_to = int(target[row])
                if lane_to not in av_keeper_claims:
                    mask = av_keeper & (target == lane_to)
                    av_keeper_claims[lane_to] = (claim_lo[mask], claim_hi[mask])
                lows, highs = av_keeper_claims[lane_to]
                overlapping = bool(np.any((claim_lo[row] < highs)
                                          & (lows < claim_hi[row])))
                if not overlapping:
                    for low, high in av_extra.get(lane_to, ()):
                        if claim_lo[row] < high and low < claim_hi[row]:
                            overlapping = True
                            break
                if overlapping:
                    lane_delta[row] = 0
                    target[row] = lane[row]
                    cooldown[row] = 0
                    av_extra.setdefault(int(lane[row]), []).append(
                        (claim_lo[row], claim_hi[row]))
                else:
                    av_extra.setdefault(lane_to, []).append(
                        (claim_lo[row], claim_hi[row]))
        if cv_changers:
            changer = (lane_delta != 0) & not_av
            keeper = ~changer
            keeper_claims: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            extra_claims: dict[int, list[tuple[float, float]]] = {}
            for row in np.flatnonzero(changer):
                lane_to = int(target[row])
                if lane_to not in keeper_claims:
                    mask = keeper & (target == lane_to)
                    keeper_claims[lane_to] = (claim_lo[mask], claim_hi[mask])
                lows, highs = keeper_claims[lane_to]
                overlapping = bool(np.any((claim_lo[row] < highs)
                                          & (lows < claim_hi[row])))
                if not overlapping:
                    for low, high in extra_claims.get(lane_to, ()):
                        if claim_lo[row] < high and low < claim_hi[row]:
                            overlapping = True
                            break
                if overlapping:
                    lane_delta[row] = 0
                    target[row] = lane[row]
                    cooldown[row] = 0
                    extra_claims.setdefault(int(lane[row]), []).append(
                        (claim_lo[row], claim_hi[row]))
                else:
                    extra_claims.setdefault(lane_to, []).append(
                        (claim_lo[row], claim_hi[row]))

        # Boundary events (driving off the road laterally), sorted-vid
        # order; only externally commanded maneuvers can leave the road.
        if may_off_road:
            off_road = (target < 1) | (target > self.road.num_lanes)
            if off_road.any():
                for row in np.flatnonzero(off_road):
                    event = CollisionEvent(self.step_count, vehicles[row].vid,
                                           None, "boundary")
                    new_events.append(event)
                    self.collisions.append(event)
                lane_delta = np.where(off_road, 0, lane_delta)
                target = np.where(off_road, lane, target)

        # Eq. 18 kinematics (VehicleState.advanced, transcribed).
        new_v = np.minimum(np.maximum(v + accel * constants.DT, v_floor),
                           self.road.v_max)
        new_lon = lon + v * constants.DT + accel * _HALF_DT_SQ

        lat_list = target.tolist()
        lon_list = new_lon.tolist()
        v_list = new_v.tolist()
        accel_list = accel.tolist()
        cooldown_list = cooldown.tolist()
        states: list[VehicleState] = []
        record_state = states.append
        new_instance = object.__new__
        # States are built by writing the instance dict directly: the
        # frozen-dataclass constructor routes every field through
        # object.__setattr__, a measurable cost at one state per vehicle
        # per step.  The objects are identical (same fields, eq, hash).
        for vehicle, lat_next, lon_next, v_next, accel_next, cd_next, past in zip(
                vehicles, lat_list, lon_list, v_list, accel_list,
                cooldown_list, deques):
            vehicle.prev_accel = vehicle.accel
            vehicle.accel = accel_next
            state = new_instance(VehicleState)
            state_dict = state.__dict__
            state_dict["lat"] = lat_next
            state_dict["lon"] = lon_next
            state_dict["v"] = v_next
            vehicle.state = state
            vehicle.cooldown = cd_next
            past.append(state)
            record_state(state)
        self._lane_hash = None

        # Crash detection on the advanced state: consecutive same-lane
        # pairs, lanes ascending then positions ascending.
        order = np.lexsort((new_lon, target))
        sorted_lane = target[order]
        sorted_lon = new_lon[order]
        sorted_rear = sorted_lon - length[order]
        crash = (sorted_lane[1:] == sorted_lane[:-1]) \
            & ((sorted_rear[1:] - sorted_lon[:-1]) < 0.0)
        for pair in crash.nonzero()[0]:
            follower = vehicles[int(order[pair])]
            leader = vehicles[int(order[pair + 1])]
            event = CollisionEvent(self.step_count, follower.vid, leader.vid,
                                   "crash")
            new_events.append(event)
            self.collisions.append(event)

        if float(new_lon.max()) >= self.road.length:
            for vehicle in list(self.vehicles.values()):
                if vehicle.lon >= self.road.length:
                    vehicle.finish_time = self.step_count + 1
                    self.remove_vehicle(vehicle.vid)
        else:
            # Nobody retired: the arrays just written back are next
            # step's inputs (retirement clears _soa_cache instead).
            self._soa_cache = (vehicles, states, target, new_lon, new_v,
                               cooldown, cooldown_list, deques)

        self._pending.clear()
        self.step_count += 1
        return new_events

    @staticmethod
    def _emergency_brake(vehicle: Vehicle, leader: Vehicle | None,
                         accel: float) -> float:
        """Allow a CV to exceed comfortable braking in a near-collision.

        SUMO's emergencyDecel semantics: when the closing speed and gap
        demand more than the comfortable bound to avoid running into the
        leader (e.g. a vehicle just cut in), brake as hard as the tires
        allow.  The criterion is the constant-deceleration stopping
        envelope ``closing^2 / (2 * gap)`` plus a reaction-step margin.
        """
        if leader is None:
            return accel
        gap = vehicle.gap_to(leader)
        closing = vehicle.v - leader.v
        if gap <= 0.0 or closing <= 0.0:
            return accel
        # Gap available after one more reaction step at current speeds.
        effective_gap = max(gap - closing * constants.DT - 0.3, 0.1)
        required = closing * closing / (2.0 * effective_gap)
        if required <= constants.A_MAX:
            return accel
        return -min(required, constants.EMERGENCY_DECEL)

    def _adjacent(self, vehicle: Vehicle, direction: int) -> tuple[Vehicle | None, Vehicle | None] | None:
        lane = vehicle.lane + direction
        if not self.road.is_valid_lane(lane):
            return None
        return (self.leader_of(vehicle, lane), self.follower_of(vehicle, lane))

    def _resolve_lane_conflicts(self, decisions: dict[str, Maneuver]) -> dict[str, Maneuver]:
        """Cancel lane changes that would collide with concurrent movers.

        Decisions are made synchronously from the state at ``t``, so two
        vehicles can legitimately claim the same target gap.  Resolution
        runs in sorted-vid order (canonical: invariant to insertion
        order) in three waves:

        1. lane-keepers (CV and AV) claim their predicted intervals;
        2. AV changers arbitrate **among themselves**: an AV lane change
           aborts only when it overlaps another AV's claim.  CV claims
           never override an AV command -- an AV maneuver that is unsafe
           with respect to conventional traffic must produce the
           collision so the reward can penalize it.  With a single AV
           this wave is a no-op, preserving the M=1 contract;
        3. CV changers abort (keep lane) when overlapping any existing
           claim, including the AVs' final targets.
        """
        margin = 1.0
        claims: dict[int, list[tuple[float, float]]] = {}
        av_claims: dict[int, list[tuple[float, float]]] = {}
        resolved = dict(decisions)

        def predicted_interval(vehicle: Vehicle, maneuver: Maneuver) -> tuple[float, float]:
            lon = vehicle.lon + vehicle.v * constants.DT + 0.5 * maneuver.accel * constants.DT ** 2
            return (lon - vehicle.length - margin, lon + margin)

        av_movers: list[str] = []
        changers: list[str] = []
        for vid in sorted(decisions):
            vehicle = self.vehicles.get(vid)
            if vehicle is None:
                continue
            maneuver = decisions[vid]
            if maneuver.lane_delta == 0:
                interval = predicted_interval(vehicle, maneuver)
                claims.setdefault(vehicle.lane, []).append(interval)
                if vehicle.is_autonomous:
                    av_claims.setdefault(vehicle.lane, []).append(interval)
            elif vehicle.is_autonomous:
                av_movers.append(vid)
            else:
                changers.append(vid)

        for vid in av_movers:
            vehicle = self.vehicles[vid]
            maneuver = decisions[vid]
            target = vehicle.lane + maneuver.lane_delta
            interval = predicted_interval(vehicle, maneuver)
            overlapping = any(interval[0] < hi and lo < interval[1]
                              for lo, hi in av_claims.get(target, []))
            if overlapping:
                resolved[vid] = Maneuver(0, maneuver.accel)
                vehicle.cooldown = 0
                lane_to = vehicle.lane
            else:
                lane_to = target
            claims.setdefault(lane_to, []).append(interval)
            av_claims.setdefault(lane_to, []).append(interval)

        for vid in changers:
            vehicle = self.vehicles[vid]
            maneuver = decisions[vid]
            target = vehicle.lane + maneuver.lane_delta
            interval = predicted_interval(vehicle, maneuver)
            overlapping = any(interval[0] < hi and lo < interval[1]
                              for lo, hi in claims.get(target, []))
            if overlapping:
                resolved[vid] = Maneuver(0, maneuver.accel)
                vehicle.cooldown = 0
                claims.setdefault(vehicle.lane, []).append(predicted_interval(vehicle, resolved[vid]))
            else:
                claims.setdefault(target, []).append(interval)
        return resolved

    def _apply(self, decisions: dict[str, Maneuver]) -> list[CollisionEvent]:
        new_events: list[CollisionEvent] = []
        decisions = self._resolve_lane_conflicts(decisions)
        for vid, maneuver in decisions.items():
            vehicle = self.vehicles.get(vid)
            if vehicle is None:
                continue
            target_lane = vehicle.lane + maneuver.lane_delta
            if not self.road.is_valid_lane(target_lane):
                event = CollisionEvent(self.step_count, vid, None, "boundary")
                new_events.append(event)
                self.collisions.append(event)
                target_lane = vehicle.lane  # stay on road after recording
                maneuver = Maneuver(0, maneuver.accel)
            v_floor = self.road.v_min if vehicle.is_autonomous else 0.0
            vehicle.prev_accel = vehicle.accel
            vehicle.accel = maneuver.accel
            vehicle.state = vehicle.state.advanced(
                maneuver.lane_delta, maneuver.accel,
                v_min=v_floor, v_max=self.road.v_max)
            self.history[vid].append(vehicle.state)

        self._lane_hash = None
        new_events.extend(self._detect_crashes())

        for vehicle in list(self.vehicles.values()):
            if vehicle.lon >= self.road.length:
                vehicle.finish_time = self.step_count + 1
                self.remove_vehicle(vehicle.vid)
        return new_events

    def _detect_crashes(self) -> list[CollisionEvent]:
        index, vehicles = self._lanes()
        events: list[CollisionEvent] = []
        for lane_no in range(1, index.num_lanes + 1):
            rows = index.order[index.starts[lane_no - 1]:index.starts[lane_no]]
            in_lane = [vehicles[row] for row in rows.tolist()]
            for follower, leader in zip(in_lane[:-1], in_lane[1:]):
                if follower.gap_to(leader) < 0.0:
                    event = CollisionEvent(self.step_count, follower.vid, leader.vid, "crash")
                    events.append(event)
                    self.collisions.append(event)
        return events

    # ------------------------------------------------------------------
    # history access (used by the perception module)
    # ------------------------------------------------------------------
    def state_history(self, vid: str, steps: int) -> list[VehicleState]:
        """Return the most recent ``steps`` states (oldest first).

        Pads by repeating the oldest known state when the vehicle has
        been alive for fewer steps, which mirrors a sensor that has just
        acquired a track.
        """
        recorded = list(self.history[vid])[-steps:]
        if len(recorded) < steps:
            recorded = [recorded[0]] * (steps - len(recorded)) + recorded
        return recorded

    def density_per_km(self) -> float:
        """Current total vehicle density across all lanes (veh/km)."""
        return len(self.vehicles) / (self.road.length / 1000.0)
