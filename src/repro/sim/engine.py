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

The world is columns: :class:`~repro.sim.vehicle.VehicleColumns` holds
one array per vehicle field, the step reads and writes those arrays,
and a :class:`~repro.sim.vehicle.Vehicle` is a handle on one row.  No
past states are kept; perception keeps its own sensed tracks.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import constants
from .carfollowing import CarFollowingModel, FREE_ROAD_GAP, Krauss
from .lanechange import MOBIL
from .road import Road
from .spatial import SpatialHash
from .vehicle import ProfileArrays, Vehicle, VehicleColumns
from ..seeding import resolve_rng

__all__ = ["CollisionEvent", "SimulationEngine", "Maneuver"]

#: Lane-change cooldown for conventional vehicles (steps); 2 s, keeps
#: MOBIL from oscillating between lanes, similar to SUMO's LC holddown.
LANE_CHANGE_COOLDOWN = 4

#: Sort key of a row handle: rows are sorted by vehicle id.
_vid = attrgetter("vid")

#: Shared one-element 0.0 pad: appended to value arrays so gathering
#: with a -1 neighbor index yields the masked-branch substitute value.
_ZERO = np.array([0.0])

#: ``0.5 * DT**2`` prefolded.  DT is a power of two (0.5 s), so every
#: intermediate scaling in both the scalar ``0.5*a*dt*dt`` chain and
#: the folded ``a * _HALF_DT_SQ`` form is exact -- the two are
#: bit-identical.
_HALF_DT_SQ = 0.5 * constants.DT * constants.DT


def _abort_conflicting_changes(movers: np.ndarray, keepers: np.ndarray,
                               lane: np.ndarray, lane_delta: np.ndarray,
                               target: np.ndarray, cooldown: np.ndarray,
                               claim_lo: np.ndarray, claim_hi: np.ndarray) -> None:
    """Cancel, in row order, each lane change whose claimed interval
    overlaps a keeper's claim in its target lane or an earlier mover's.

    ``movers`` and ``keepers`` are disjoint row masks.  ``lane_delta``,
    ``target`` and ``cooldown`` are updated in place; an aborted mover
    claims its interval in its own lane instead.  Keepers' targets do
    not change here, so every mover is tested against every keeper claim
    in one comparison; only the movers' claims on each other are walked
    in row order.
    """
    rows = np.flatnonzero(movers)
    kept = np.flatnonzero(keepers)
    lows, highs, lanes_to = claim_lo[rows], claim_hi[rows], target[rows]
    blocked = ((lanes_to[:, None] == target[kept])
               & (lows[:, None] < claim_hi[kept])
               & (claim_lo[kept] < highs[:, None])).any(axis=1)
    mover_claims: dict[int, list[tuple[float, float]]] = {}
    for row, low, high, lane_to, overlapping in zip(
            rows.tolist(), lows.tolist(), highs.tolist(), lanes_to.tolist(),
            blocked.tolist()):
        if not overlapping:
            overlapping = any(low < other_high and other_low < high
                              for other_low, other_high
                              in mover_claims.get(lane_to, ()))
        if overlapping:
            lane_delta[row] = 0
            target[row] = lane[row]
            cooldown[row] = 0
            lane_to = int(lane[row])
        mover_claims.setdefault(lane_to, []).append((low, high))


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
    """Owns the world's vehicles as columns and advances the world clock.

    The population is one :class:`VehicleColumns` (``columns``) whose
    rows are sorted by vehicle id, the order the step visits vehicles
    in.  ``vehicles`` maps ids to :class:`Vehicle` row handles in the
    order they were added; retired and discarded handles keep a
    read-only copy of their final row.

    Parameters
    ----------
    road:
        Road geometry and speed limits.
    car_following:
        Model used by conventional vehicles (Krauss by default, matching
        SUMO).
    rng:
        Seeded generator driving stochastic driver imperfection.

    Raises ``TypeError`` when ``car_following`` has no
    ``acceleration_batch``: the step advances every vehicle at once.
    """

    def __init__(self, road: Road | None = None,
                 car_following: CarFollowingModel | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.road = road or Road()
        self.car_following = car_following or Krauss()
        if not hasattr(self.car_following, "acceleration_batch"):
            raise TypeError(f"{type(self.car_following).__name__} has no "
                            f"acceleration_batch, which SimulationEngine needs")
        self.lane_change = MOBIL(self.car_following)
        self.rng = resolve_rng(rng)
        self.step_count = 0
        self.vehicles: dict[str, Vehicle] = {}
        self.collisions: list[CollisionEvent] = []
        self.retired: dict[str, Vehicle] = {}
        self.columns = VehicleColumns(ProfileArrays.from_profiles([]))
        self._rows: list[Vehicle] = []   # the handle behind each row
        self._arrivals = 0
        self._pending: dict[str, Maneuver] = {}

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_vehicle(self, vehicle: Vehicle) -> Vehicle:
        """Register a vehicle; raises on duplicate ids or invalid lanes.

        The one-vehicle case of :meth:`add_vehicles`: the engine adopts
        the handle, and its reads and writes go to its new row.
        """
        self._adopt([vehicle.vid], vehicle._table.take([vehicle._row]), [vehicle])
        return vehicle

    def add_vehicles(self, vids: Sequence[str], rows: VehicleColumns) -> list[Vehicle]:
        """Register one vehicle per row of ``rows``; return their handles."""
        if len(vids) != len(rows.lon):
            raise ValueError(f"{len(vids)} ids for {len(rows.lon)} rows")
        return self._adopt(vids, rows)

    def _adopt(self, vids: Sequence[str], rows: VehicleColumns,
               handles: list[Vehicle] | None = None) -> list[Vehicle]:
        """Merge ``rows`` (row k for ``vids[k]``) into the columns; return
        the handles in ``vids`` order.

        ``handles`` are existing handles to adopt; without them a new
        handle is made per row.  Only the batch is sorted; each new id is
        bisected into the rows, which are already sorted, and the handles
        are renumbered from the first row that moved.
        """
        new = set(vids)
        if len(new) < len(vids) or not new.isdisjoint(self.vehicles):
            seen: set[str] = set()
            for vid in vids:
                if vid in seen or vid in self.vehicles:
                    raise ValueError(f"duplicate vehicle id {vid!r}")
                seen.add(vid)
        invalid = np.flatnonzero((rows.lane < 1) | (rows.lane > self.road.num_lanes))
        if invalid.size:
            raise ValueError(f"vehicle {vids[invalid[0]]!r} placed on invalid "
                             f"lane {rows.lane[invalid[0]]}")
        if not vids:
            return []
        batch_order = sorted(range(len(vids)), key=vids.__getitem__)
        taken = np.array(batch_order)
        batch = rows.take(taken)
        batch.spawn_time[:] = self.step_count
        batch.arrival[:] = taken + self._arrivals
        self._arrivals += len(vids)
        table = self.columns
        if handles is None:
            handles = [None] * len(vids)
            for row, k in enumerate(batch_order):
                handle = handles[k] = object.__new__(Vehicle)
                handle.vid, handle.finish_time = vids[k], None
                handle._table, handle._row = table, row
        else:
            for row, k in enumerate(batch_order):
                handles[k]._table, handles[k]._row = table, row
        ordered = [handles[k] for k in batch_order]
        if self._rows:
            at = [bisect_left(self._rows, vids[k], key=_vid) for k in batch_order]
            table.assign(table.merge(at, batch))
            for row, handle in zip(reversed(at), reversed(ordered)):
                self._rows.insert(row, handle)
            self._renumber(at[0])
        else:
            table.assign(batch)
            self._rows = ordered
        self.vehicles.update(zip(vids, handles))
        return handles

    def remove_vehicle(self, vid: str) -> None:
        """Retire a vehicle (e.g. it finished the road).

        Raises ``KeyError`` when ``vid`` is not a live vehicle.
        """
        (self.retired[vid],) = self.discard_vehicles([vid])

    def discard_vehicle(self, vid: str) -> None:
        """Drop a vehicle from the world without marking it retired.

        ``retired`` means "finished the road" to the reward/outcome
        code, so taking a crashed fleet AV out of the simulation must
        not go through :meth:`remove_vehicle`.  The handle keeps a
        read-only copy of its final state.  Raises ``KeyError`` when
        ``vid`` is not a live vehicle.
        """
        self.discard_vehicles([vid])

    def discard_vehicles(self, vids: list[str]) -> list[Vehicle]:
        """:meth:`discard_vehicle` for several ids, in one compaction;
        returns their handles in row order."""
        if not vids:
            return []
        rows = set()
        for vid in vids:
            vehicle = self.vehicles.get(vid)
            if vehicle is None:
                raise KeyError(f"no live vehicle {vid!r}")
            rows.add(vehicle._row)
        return self._remove(sorted(rows))

    def _remove(self, rows: list[int]) -> list[Vehicle]:
        """Drop the given rows (ascending); return their handles, detached
        onto a read-only copy of those rows only.

        The live columns are compacted in one copy, and only the handles
        behind the first dropped row are renumbered.
        """
        kept, final = self.columns.split(rows)
        self.columns.assign(kept)
        handles = self._rows
        detached = [handles[row] for row in rows]
        for row, vehicle in enumerate(detached):
            vehicle._table, vehicle._row = final, row
            del self.vehicles[vehicle.vid]
        for row in reversed(rows):
            del handles[row]
        self._renumber(rows[0])
        return detached

    def _renumber(self, start: int) -> None:
        """Renumber the handles of rows ``start`` onward."""
        for row, vehicle in enumerate(self._rows[start:], start):
            vehicle._row = row

    def arrival_order(self) -> np.ndarray:
        """Rows in the order their vehicles were added (``vehicles`` order)."""
        return np.argsort(self.columns.arrival)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, vid: str) -> Vehicle:
        """Return a live vehicle by id."""
        return self.vehicles[vid]

    def active_vehicles(self) -> list[Vehicle]:
        """Live vehicles sorted by id (row order), as a new list."""
        return list(self._rows)

    def _lane_index(self) -> SpatialHash:
        """The lane index over the current rows.

        Built at the end of every step and on the first query after a
        position write or population change.  Its ``lexsort`` runs over
        the rows newest first and is stable, so an equal-longitude run
        keeps that order: a leader query (first row of the run ahead)
        returns the last-added vehicle and a follower query (last row of
        the run behind) the first-added one.
        """
        table = self.columns
        if table.index is None:
            newest_first = np.argsort(-table.arrival)
            index = SpatialHash(table.lane[newest_first], table.lon[newest_first],
                                self.road.num_lanes)
            index.order = newest_first[index.order]  # back to engine rows
            table.index = index
        return table.index

    def leader_in_lane(self, lane: int, lon: float) -> Vehicle | None:
        """Nearest vehicle strictly ahead of ``lon`` in ``lane``."""
        row = self._lane_index().leader(lane, lon)
        return self._rows[row] if row >= 0 else None

    def follower_in_lane(self, lane: int, lon: float) -> Vehicle | None:
        """Nearest vehicle strictly behind ``lon`` in ``lane``."""
        row = self._lane_index().follower(lane, lon)
        return self._rows[row] if row >= 0 else None

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
    def _dawdle_noise(self, count: int) -> np.ndarray | None:
        """Draw the per-step dawdle noise block: one (u_hit, u_mag) pair per
        eligible conventional vehicle, in sorted-vid order.

        A single block draw (instead of data-dependent sequential draws)
        keeps the RNG stream consumption identical to the scalar oracle:
        ``Generator.random((n, 2))`` consumes the same stream as 2n
        sequential ``random()`` calls.
        """
        return self.rng.random((count, 2)) if count else None

    def step(self) -> list[CollisionEvent]:
        """Advance the world by one 0.5 s step; return new collisions.

        Every vehicle advances at once: the step reads the engine's
        columns and writes its results back into them.  The formulas
        transcribe the scalar per-vehicle loop kept as the
        test oracle (``tests/oracles/engine.py``) with identical
        operation order (see docs/performance.md), so positions,
        velocities, lanes, cooldowns, collision events and RNG draws
        match it bit for bit.
        """
        new_events: list[CollisionEvent] = []
        vehicles = self._rows
        count = len(vehicles)
        if count == 0:
            self._pending.clear()
            self.step_count += 1
            return new_events
        table = self.columns
        lane, lon, v, cooldown = table.lane, table.lon, table.v, table.cooldown
        length, is_av, profiles = table.length, table.is_autonomous, table.profiles
        v_floor = np.where(is_av, self.road.v_min, 0.0)
        not_av = ~is_av
        has_av = bool(is_av.any())
        rear = lon - length

        lane_delta = np.zeros(count, dtype=np.int64)
        cv_changers = False
        av_changers = False
        any_delta = False
        if self._pending:
            accel = np.zeros(count)
            pending = np.zeros(count, dtype=bool)
            for vid, maneuver in self._pending.items():
                vehicle = self.vehicles.get(vid)
                if vehicle is None:
                    continue
                row = vehicle._row
                pending[row] = True
                lane_delta[row] = maneuver.lane_delta
                accel[row] = maneuver.accel
                if maneuver.lane_delta != 0:
                    any_delta = True
                    if not is_av[row]:
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
        # own-lane leaders plus both adjacent-lane leader/follower pairs,
        # from the lane index the previous step left behind.
        leaders3, followers3 = self._lane_index().neighbors(
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
            rows = np.arange(count)
            ego = np.concatenate((rows, rows))
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

        # Seeded driver imperfection: one block draw for every eligible row.
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

        # Emergency braking envelope against the car-following leader
        # (SUMO's emergencyDecel): when the constant-deceleration stopping
        # envelope closing^2 / (2 * gap), after one more reaction step,
        # demands more than A_MAX (e.g. a vehicle just cut in), brake as
        # hard as the tires allow.
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

        # Synchronous lane-change conflicts: decisions come from the state
        # at t, so two vehicles can claim the same gap.  Lane keepers
        # claim their predicted intervals; AV-vs-AV arbitration runs
        # next -- an AV lane change aborts only when it overlaps another
        # AV's claim, never a CV's, so an AV maneuver unsafe for
        # conventional traffic produces the collision the reward must
        # penalize (with one AV this wave is a no-op) -- then CV changers
        # abort, in sorted-vid order, against keeper claims and the AVs'
        # final targets.
        target = lane + lane_delta if any_delta else lane
        if cv_changers or av_changers:
            predicted = lon + v * constants.DT + accel * _HALF_DT_SQ
            claim_lo = predicted - length - 1.0
            claim_hi = predicted + 1.0
        if av_changers:
            av_mover = (lane_delta != 0) & is_av
            _abort_conflicting_changes(av_mover, is_av & ~av_mover, lane,
                                       lane_delta, target, cooldown,
                                       claim_lo, claim_hi)
        if cv_changers:
            changer = (lane_delta != 0) & not_av
            _abort_conflicting_changes(changer, ~changer, lane, lane_delta,
                                       target, cooldown, claim_lo, claim_hi)

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

        table.prev_accel[:] = table.accel
        table.accel[:] = accel
        table.lane[:] = target
        table.lon[:] = new_lon
        table.v[:] = new_v
        table.cooldown[:] = cooldown

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

        finished = new_lon >= self.road.length
        if finished.any():
            for vehicle in self._remove(np.flatnonzero(finished).tolist()):
                vehicle.finish_time = self.step_count + 1
                self.retired[vehicle.vid] = vehicle
        table.index = None
        self._lane_index()

        self._pending.clear()
        self.step_count += 1
        return new_events

    def density_per_km(self) -> float:
        """Current total vehicle density across all lanes (veh/km)."""
        return len(self.vehicles) / (self.road.length / 1000.0)
