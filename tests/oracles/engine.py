"""Scalar oracle of :meth:`repro.sim.engine.SimulationEngine.step`.

:class:`ScalarEngine` advances the world one vehicle at a time through
object queries (``leader_of``/``follower_of``) and the scalar MOBIL
``evaluate``/``decide`` below, in the order the library's vectorized
step must reproduce bit for bit: positions, speeds, lanes, cooldowns,
collision events, retirements and RNG draws.

The lockstep suites build a world with the library spawn and then step
it with this class, either by constructing ``ScalarEngine`` directly or
by re-classing a built engine with :func:`as_scalar`.
:func:`abort_conflicting_changes` is the library's lane-change
arbitration pass in its row-by-row form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import constants
from repro.sim.carfollowing import free_road_gap
from repro.sim.engine import (LANE_CHANGE_COOLDOWN, CollisionEvent, Maneuver,
                              SimulationEngine)
from repro.sim.lanechange import MOBIL
from repro.sim.vehicle import DriverProfile, Vehicle


@dataclass(frozen=True)
class LaneChangeDecision:
    """Outcome of a lane-change evaluation: target delta and incentive."""

    lane_delta: int
    incentive: float


def abort_conflicting_changes(movers: np.ndarray, keepers: np.ndarray,
                              lane: np.ndarray, lane_delta: np.ndarray,
                              target: np.ndarray, cooldown: np.ndarray,
                              claim_lo: np.ndarray, claim_hi: np.ndarray) -> None:
    """The row-by-row form of :func:`repro.sim.engine._abort_conflicting_changes`:
    each mover, in row order, against the keeper claims in its target
    lane and then the claims of the movers before it."""
    keeper_claims: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    mover_claims: dict[int, list[tuple[float, float]]] = {}
    for row in np.flatnonzero(movers):
        lane_to = int(target[row])
        if lane_to not in keeper_claims:
            mask = keepers & (target == lane_to)
            keeper_claims[lane_to] = (claim_lo[mask], claim_hi[mask])
        lows, highs = keeper_claims[lane_to]
        overlapping = bool(np.any((claim_lo[row] < highs)
                                  & (lows < claim_hi[row])))
        if not overlapping:
            for low, high in mover_claims.get(lane_to, ()):
                if claim_lo[row] < high and low < claim_hi[row]:
                    overlapping = True
                    break
        if overlapping:
            lane_delta[row] = 0
            target[row] = lane[row]
            cooldown[row] = 0
            lane_to = int(lane[row])
        mover_claims.setdefault(lane_to, []).append((claim_lo[row], claim_hi[row]))


def _accel(mobil: MOBIL, vehicle: Vehicle, leader: Vehicle | None,
           profile: DriverProfile) -> float:
    gap = vehicle.gap_to(leader) if leader is not None else free_road_gap()
    leader_v = leader.v if leader is not None else 0.0
    return mobil.model.acceleration(vehicle.v, leader_v, gap, profile)


def evaluate(mobil: MOBIL, vehicle: Vehicle,
             current_leader: Vehicle | None,
             side_leader: Vehicle | None,
             side_follower: Vehicle | None,
             lane_delta: int) -> LaneChangeDecision:
    """Score one candidate adjacent lane (``-inf`` when unsafe)."""
    profile = vehicle.profile

    own_now = _accel(mobil, vehicle, current_leader, profile)
    own_new = _accel(mobil, vehicle, side_leader, profile)

    if side_follower is not None:
        gap_after = vehicle.rear - side_follower.lon
        if gap_after <= max(side_follower.profile.min_gap, 1.0):
            return LaneChangeDecision(lane_delta, float("-inf"))
        follower_after = mobil.model.acceleration(
            side_follower.v, vehicle.v, gap_after, side_follower.profile)
        if follower_after < -mobil.safe_decel:
            return LaneChangeDecision(lane_delta, float("-inf"))
        follower_before_gap = (side_leader.rear - side_follower.lon
                               if side_leader is not None else free_road_gap())
        follower_before = mobil.model.acceleration(
            side_follower.v,
            side_leader.v if side_leader is not None else 0.0,
            follower_before_gap, side_follower.profile)
        follower_cost = follower_before - follower_after
    else:
        follower_cost = 0.0

    if side_leader is not None and vehicle.gap_to(side_leader) <= max(profile.min_gap, 1.0):
        return LaneChangeDecision(lane_delta, float("-inf"))
    # The changer itself must not need an emergency brake in the new lane.
    if own_new < -mobil.safe_decel:
        return LaneChangeDecision(lane_delta, float("-inf"))

    incentive = (own_new - own_now) - profile.politeness * follower_cost
    return LaneChangeDecision(lane_delta, incentive)


def decide(mobil: MOBIL, vehicle: Vehicle,
           leader: Vehicle | None,
           left: tuple[Vehicle | None, Vehicle | None] | None,
           right: tuple[Vehicle | None, Vehicle | None] | None) -> int:
    """Lane delta in {-1, 0, +1}; ``left``/``right`` are (leader, follower)
    pairs in the adjacent lanes, or None when that lane does not exist."""
    candidates: list[LaneChangeDecision] = []
    if left is not None:
        candidates.append(evaluate(mobil, vehicle, leader, left[0], left[1], -1))
    if right is not None:
        candidates.append(evaluate(mobil, vehicle, leader, right[0], right[1], +1))
    if not candidates:
        return 0
    best = max(candidates, key=lambda decision: decision.incentive)
    if best.incentive > vehicle.profile.lane_change_threshold:
        return best.lane_delta
    return 0


class ScalarEngine(SimulationEngine):
    """A :class:`SimulationEngine` stepped by the per-vehicle loop."""

    def step(self) -> list[CollisionEvent]:
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
            lane_delta = decide(self.lane_change, vehicle, leader, left, right)
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

    @staticmethod
    def _emergency_brake(vehicle: Vehicle, leader: Vehicle | None,
                         accel: float) -> float:
        """SUMO's emergencyDecel: brake past the comfortable bound when the
        ``closing^2 / (2 * gap)`` stopping envelope demands it."""
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

    def _adjacent(self, vehicle: Vehicle, direction: int
                  ) -> tuple[Vehicle | None, Vehicle | None] | None:
        lane = vehicle.lane + direction
        if not self.road.is_valid_lane(lane):
            return None
        return (self.leader_of(vehicle, lane), self.follower_of(vehicle, lane))

    def _resolve_lane_conflicts(self, decisions: dict[str, Maneuver]) -> dict[str, Maneuver]:
        """Cancel lane changes that would collide with concurrent movers,
        in sorted-vid order: keepers claim first, AV changers abort only
        against AV claims, CV changers against any claim."""
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

        new_events.extend(self._detect_crashes())

        # Sorted-vid order, as the vectorized step retires.
        for vehicle in self.active_vehicles():
            if vehicle.lon >= self.road.length:
                vehicle.finish_time = self.step_count + 1
                self.remove_vehicle(vehicle.vid)
        return new_events

    def _detect_crashes(self) -> list[CollisionEvent]:
        index, vehicles = self._lane_index(), self.active_vehicles()
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


def as_scalar(engine: SimulationEngine) -> ScalarEngine:
    """Step an engine built by the library with the scalar loop from now on."""
    engine.__class__ = ScalarEngine
    return engine


def snapshot(engine: SimulationEngine) -> tuple:
    """Exact state of the world: per-vehicle kinematics + event records."""
    return (
        [(vid, vehicle.state.lat, vehicle.state.lon, vehicle.state.v)
         for vid, vehicle in sorted(engine.vehicles.items())],
        list(engine.collisions),
        sorted(engine.retired),
    )
