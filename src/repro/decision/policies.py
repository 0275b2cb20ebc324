"""Decision baselines (paper Section V-A): IDM-LC, ACC-LC, DRL-SC, TP-BTS.

All controllers implement :class:`Controller` -- given the environment
(for its sensor-limited perception frame) and the augmented state, emit
one parameterized action.  RL agents are adapted via
:class:`AgentController`.

* **IDM-LC / ACC-LC** -- rule-based longitudinal control (IDM / ACC)
  combined with a MOBIL lane-change evaluation on the perceived targets.
* **DRL-SC** -- a DQN over 9 discretized maneuvers with a safety check
  that overrides unsafe picks (Nageshrao et al. 2019).
* **TP-BTS** -- trajectory-prediction + behavior-tree search: roll the
  perceived scene forward under each discrete maneuver sequence and
  pick the best scoring branch (Liu et al. 2021).
"""

from __future__ import annotations

import numpy as np

from ..perception.neighbors import AREA_COUNT
from ..perception.phantom import PerceivedScene, TrackKind
from ..sim import constants
from ..sim.carfollowing import ACC, CarFollowingModel, IDM, free_road_gap
from ..sim.vehicle import DriverProfile
from .pamdp import AugmentedState, LaneBehavior, ParameterizedAction

__all__ = ["Controller", "AgentController", "RuleBasedPolicy", "IDMLCPolicy",
           "ACCLCPolicy", "TPBTSPolicy", "DISCRETE_ACCELS"]

#: Acceleration levels used by the discrete baselines (DRL-SC, TP-BTS).
DISCRETE_ACCELS = (-constants.A_MAX, 0.0, constants.A_MAX)

#: Bumper gap (m) a perceived rear follower in the target lane must keep
#: beyond its closing speed before the rule-based policies change lanes.
FOLLOWER_MIN_GAP = 2.0


class Controller:
    """Anything that can drive the AV one step at a time."""

    name = "controller"

    def begin_episode(self) -> None:
        """Hook called at episode start (reset internal state)."""

    def select_action(self, env, state: AugmentedState) -> ParameterizedAction:
        raise NotImplementedError


class AgentController(Controller):
    """Adapter exposing a trained RL agent as a greedy controller."""

    def __init__(self, agent, name: str = "agent") -> None:
        self.agent = agent
        self.name = name

    def select_action(self, env, state: AugmentedState) -> ParameterizedAction:
        return self.agent.act(state, explore=False)


class RuleBasedPolicy(Controller):
    """IDM-LC / ACC-LC: car-following + MOBIL on the perceived targets.

    Decisions use only the sensor-limited perception frame, like every
    other method: the front target's gap and speed feed the longitudinal
    model, and adjacent-lane targets feed a MOBIL-style incentive and
    safety test.
    """

    LANE_CHANGE_COOLDOWN = 4

    def __init__(self, model: CarFollowingModel, name: str,
                 politeness: float = 0.3, change_threshold: float = 0.25) -> None:
        self.model = model
        self.name = name
        self.profile = DriverProfile(desired_speed=constants.V_MAX, imperfection=0.0,
                                     politeness=politeness,
                                     lane_change_threshold=change_threshold)
        self._cooldown = 0

    def begin_episode(self) -> None:
        self._cooldown = 0

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _gap_and_speed(scene: PerceivedScene, area: int,
                       ego_lon: float) -> tuple[float, float]:
        """Bumper gap and absolute speed of the target in ``area``.

        Phantoms constructed at the detection boundary act like a
        vehicle at distance R; inherent phantoms (off-road) are reported
        by the caller via lane validity, not here.
        """
        target = scene.node(area)
        if target.kind is TrackKind.ZERO:
            return free_road_gap(), 0.0
        gap = abs(target.lon - ego_lon) - constants.VEHICLE_LENGTH
        return max(gap, 0.0), target.v

    def _accel_for(self, scene: PerceivedScene, leader_area: int,
                   ego_v: float, ego_lon: float) -> float:
        gap, leader_v = self._gap_and_speed(scene, leader_area, ego_lon)
        return self.model.acceleration(ego_v, leader_v, gap, self.profile)

    def select_action(self, env, state: AugmentedState) -> ParameterizedAction:
        frame = env.frame
        scene = frame.scene
        av = env.av
        ego_v, ego_lon, ego_lane = av.v, av.lon, av.lane

        accel_keep = self._accel_for(scene, 2, ego_v, ego_lon)
        behavior = LaneBehavior.KEEP
        if self._cooldown > 0:
            self._cooldown -= 1
        else:
            best_gain = self.profile.lane_change_threshold
            for area_leader, area_follower, candidate in (
                    (1, 4, LaneBehavior.LEFT), (3, 6, LaneBehavior.RIGHT)):
                target_lane = ego_lane + candidate.lane_delta
                if not env.road.is_valid_lane(target_lane):
                    continue
                accel_new = self._accel_for(scene, area_leader, ego_v, ego_lon)
                if not self._side_safe(scene, area_leader, area_follower, ego_v, ego_lon):
                    continue
                gain = accel_new - accel_keep
                if gain > best_gain:
                    best_gain = gain
                    behavior = candidate
                    accel_keep = accel_new
            if behavior is not LaneBehavior.KEEP:
                self._cooldown = self.LANE_CHANGE_COOLDOWN
        accel = float(np.clip(accel_keep, -constants.A_MAX, constants.A_MAX))
        return ParameterizedAction(behavior, accel)

    def _side_safe(self, scene: PerceivedScene, area_leader: int,
                   area_follower: int, ego_v: float, ego_lon: float) -> bool:
        gap_leader, leader_v = self._gap_and_speed(scene, area_leader, ego_lon)
        if gap_leader < self.profile.min_gap + max(ego_v - leader_v, 0.0):
            return False
        follower = scene.node(area_follower)
        if follower.kind is TrackKind.ZERO:
            return True
        gap_follower = ego_lon - constants.VEHICLE_LENGTH - follower.lon
        closing = max(follower.v - ego_v, 0.0)
        return gap_follower > FOLLOWER_MIN_GAP + closing


class IDMLCPolicy(RuleBasedPolicy):
    """Intelligent driver model + lane change (paper baseline IDM-LC)."""

    def __init__(self) -> None:
        super().__init__(IDM(), name="IDM-LC")


class ACCLCPolicy(RuleBasedPolicy):
    """Adaptive cruise control + lane change (paper baseline ACC-LC)."""

    def __init__(self) -> None:
        super().__init__(ACC(), name="ACC-LC")


class TPBTSPolicy(Controller):
    """Trajectory prediction + behavior-tree search (paper baseline TP-BTS).

    Expands the 9 discrete maneuvers over ``depth`` steps, rolling the
    perceived targets forward with the perception module's one-step
    prediction followed by constant-velocity extrapolation, and scores
    each branch with a safety >> efficiency >> impact behavior-tree
    ordering.  The continuous acceleration is *not* searched -- the
    discretization the paper criticizes.
    """

    name = "TP-BTS"

    def __init__(self, depth: int = 2, safety_gap: float = 5.0) -> None:
        self.depth = depth
        self.safety_gap = safety_gap

    def select_action(self, env, state: AugmentedState) -> ParameterizedAction:
        frame = env.frame
        av = env.av
        # Fallback when every branch fails the safety gate: brake in lane.
        best_score = -5e8
        best = ParameterizedAction(LaneBehavior.KEEP, -constants.A_MAX)
        for behavior in LaneBehavior:
            target_lane = av.lane + behavior.lane_delta
            if not env.road.is_valid_lane(target_lane):
                continue
            for accel in DISCRETE_ACCELS:
                score = self._rollout_score(env, frame, behavior, accel)
                if score > best_score:
                    best_score = score
                    best = ParameterizedAction(behavior, accel)
        return best

    def _rollout_score(self, env, frame, behavior: LaneBehavior, accel: float) -> float:
        """Score one first-step maneuver with greedy continuation.

        Safety gates run *before* each simulated move (and pass-through
        of a leader during a move is detected), so a maneuver cannot
        score well by jumping past an obstacle within one step.
        """
        av = env.av
        dt = constants.DT
        lane = av.lane + behavior.lane_delta
        lon = float(av.lon)
        velocity = float(av.v)

        # Predicted next states of perceived targets (physical units).
        # A masked target -- or a disabled predictor, whose output is the
        # all-zero vector -- falls back to constant-velocity extrapolation.
        mask = frame.scene.target_mask()
        others = []
        for area in range(1, AREA_COUNT + 1):
            target = frame.scene.node(area)
            if target.kind is TrackKind.ZERO:
                continue
            predicted = frame.prediction[area - 1]
            if mask[area - 1] == 1.0 and np.any(predicted != 0.0):
                d_lat, d_lon, v_rel = predicted
                o_lane = av.lane + int(round(d_lat / env.road.lane_width))
                o_lon = av.lon + d_lon
                o_v = av.v + v_rel
            else:
                o_lane, o_lon, o_v = target.lane, target.lon + target.v * dt, target.v
            others.append((o_lane, o_lon, o_v))

        score = -0.3 if behavior is not LaneBehavior.KEEP else 0.0
        discount = 1.0
        for step in range(self.depth):
            next_velocity = float(np.clip(velocity + accel * dt,
                                          env.road.v_min, env.road.v_max))
            front = min(((o_lon - constants.VEHICLE_LENGTH - lon, o_v)
                         for o_lane, o_lon, o_v in others
                         if o_lane == lane and o_lon > lon), default=None)
            rear_gap = min((lon - constants.VEHICLE_LENGTH - o_lon
                            for o_lane, o_lon, o_v in others
                            if o_lane == lane and o_lon <= lon), default=free_road_gap())
            if front is not None:
                front_gap, front_v = front
                closing = next_velocity - front_v
                ttc = front_gap / closing if closing > 0.1 else float("inf")
                # Behaviour tree: safety is a hard gate, then stopping margin.
                if front_gap < 1.0 or ttc < 2.0:
                    return -1e9
                braking_margin = closing * closing / (2.0 * constants.A_MAX) + 2.0
                if front_gap < braking_margin:
                    return -1e9
                # Advancing must not pass through the leader.
                travel = velocity * dt + 0.5 * accel * dt * dt
                if travel - front_v * dt > front_gap - 1.0:
                    return -1e9
                safety = min(ttc / 8.0, 1.0) - 1.0
            else:
                safety = 0.0
            if step == 0 and behavior is not LaneBehavior.KEEP and rear_gap < 4.0:
                return -1e9
            efficiency = next_velocity / env.road.v_max
            impact = -1.0 if (behavior is not LaneBehavior.KEEP and step == 0
                              and rear_gap < 10.0) else 0.0
            score += discount * (2.0 * safety + efficiency + 0.5 * impact)
            discount *= 0.9
            # greedy continuation: keep lane, keep accel, others constant v
            lon += velocity * dt + 0.5 * accel * dt * dt
            velocity = next_velocity
            others = [(o_lane, o_lon + o_v * dt, o_v) for o_lane, o_lon, o_v in others]
        return score
