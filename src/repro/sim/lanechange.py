"""MOBIL-style lane-change model for conventional vehicles.

Implements the incentive + safety criterion of MOBIL (Kesting et al.),
which approximates SUMO's LC2013 behaviour for straight multi-lane
roads: a vehicle changes lane when the acceleration it would gain
exceeds a threshold after discounting (politeness-weighted) the
disadvantage imposed on the new follower, and only when the new
follower would not need to brake harder than a safe limit.
"""

from __future__ import annotations

import numpy as np

from .carfollowing import CarFollowingModel, FREE_ROAD_GAP
from .vehicle import ProfileArrays

__all__ = ["MOBIL"]

#: Maximum deceleration (m/s^2) a lane change may impose on the new
#: follower or require from the changer.  Must be strictly below the
#: physical bound A_MAX: model accelerations are clamped to [-A_MAX,
#: A_MAX], so a threshold at A_MAX could never reject anything.
SAFE_DECEL = 2.0


class MOBIL:
    """Minimize Overall Braking Induced by Lane changes.

    Parameters
    ----------
    model:
        The car-following model used to score hypothetical accelerations.
    safe_decel:
        Hard safety bound on the deceleration imposed on the new follower.
    """

    def __init__(self, model: CarFollowingModel, safe_decel: float = SAFE_DECEL) -> None:
        self.model = model
        self.safe_decel = safe_decel

    def evaluate_batch(self, v: np.ndarray, rear: np.ndarray,
                       profiles: ProfileArrays,
                       ego: np.ndarray, follower: np.ndarray,
                       has_leader: np.ndarray, leader_v: np.ndarray,
                       leader_gap: np.ndarray, leader_rear: np.ndarray,
                       has_follower: np.ndarray, follower_v: np.ndarray,
                       follower_lon: np.ndarray,
                       own_rows: np.ndarray, own_v: np.ndarray,
                       own_leader_v: np.ndarray, own_gap: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Score one candidate adjacent lane for every deciding vehicle.

        The incentive is the changer's acceleration gain minus the
        politeness-weighted cost to the new follower; it is ``-inf``
        where the safety criterion fails (gap floors, or a deceleration
        beyond ``safe_decel`` for the new follower or the changer).
        All arrays are aligned per deciding vehicle.  ``profiles`` holds
        the whole population; ``ego`` and ``follower`` map each row to
        its changer / prospective-follower profile row.  Rows where
        ``has_leader``/``has_follower`` are false may carry arbitrary
        finite values in the corresponding neighbor columns -- except
        ``leader_v``, which the caller must already mask to 0.0 -- and
        they are masked as if that neighbor were absent.

        ``own_rows``/``own_v``/``own_leader_v``/``own_gap`` describe
        each vehicle's *current-lane* car-following situation (already
        masked); its acceleration is both the incentive baseline and the
        step's longitudinal command, so it rides along as a fourth block
        of the stacked model call instead of costing a separate one.

        Returns ``(incentive, own_accel)``: the per-row incentive
        (``-inf`` where the safety criterion fails) and the current-lane
        acceleration per vehicle.
        """
        leader_gap = np.where(has_leader, leader_gap, FREE_ROAD_GAP)
        gap_after = rear - follower_lon
        follower_before_gap = np.where(has_leader, leader_rear - follower_lon,
                                       FREE_ROAD_GAP)

        # One stacked car-following call scores all four situations
        # (changer in the new lane; new follower after / before the
        # change; changer in its current lane) -- four model
        # invocations' worth of fixed per-op dispatch cost collapse
        # into one.
        rows = v.shape[0]
        stacked = self.model.acceleration_batch(
            np.concatenate((v, follower_v, follower_v, own_v)),
            np.concatenate((leader_v, v, leader_v, own_leader_v)),
            np.concatenate((leader_gap, gap_after, follower_before_gap, own_gap)),
            profiles.view(np.concatenate((ego, follower, follower, own_rows))))
        own_new = stacked[:rows]
        follower_after = stacked[rows:2 * rows]
        follower_before = stacked[2 * rows:3 * rows]
        own_accel = stacked[3 * rows:]
        follower_cost = np.where(has_follower, follower_before - follower_after, 0.0)

        min_gap_floor = profiles.min_gap_floor
        blocked = has_follower & (gap_after <= min_gap_floor[follower])
        blocked |= has_follower & (follower_after < -self.safe_decel)
        blocked |= has_leader & (leader_gap <= min_gap_floor[ego])
        blocked |= own_new < -self.safe_decel

        own_now = np.concatenate((own_accel, own_accel))
        incentive = (own_new - own_now) - profiles.politeness[ego] * follower_cost
        return np.where(blocked, -np.inf, incentive), own_accel

    def decide_batch(self, incentive_left: np.ndarray, incentive_right: np.ndarray,
                     thresholds: np.ndarray, valid_left: np.ndarray,
                     valid_right: np.ndarray) -> np.ndarray:
        """Lane deltas in {-1, 0, +1} per row: the better side when its
        incentive beats the driver's threshold, else keep the lane.

        Invalid lanes are scored ``-inf``, so they can never beat the
        strict threshold.  Ties prefer left.
        """
        incentive_left = np.where(valid_left, incentive_left, -np.inf)
        incentive_right = np.where(valid_right, incentive_right, -np.inf)
        best = np.maximum(incentive_left, incentive_right)
        delta = np.where(incentive_left >= incentive_right, -1, 1)
        return np.where(best > thresholds, delta, 0)
