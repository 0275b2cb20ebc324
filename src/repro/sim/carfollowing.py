"""Longitudinal car-following models for conventional vehicles.

Implements the three controllers the paper's baselines and SUMO traffic
rely on:

* **IDM** (Treiber et al. 2000) -- used by IDM-LC and as the default
  human-driver model;
* **ACC** (Milanes & Shladover 2014 style linear gap controller) -- used
  by ACC-LC;
* **Krauss** (Krauss et al. 1997) -- SUMO's default model, used by the
  simulated conventional traffic.

Every model maps ``(vehicle speed, leader speed, gap)`` to a bounded
acceleration for the next 0.5 s step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .vehicle import DriverProfile, ProfileArrays

__all__ = ["CarFollowingModel", "IDM", "ACC", "Krauss", "free_road_gap"]

#: Gap value used when there is no leader within sensing range.
FREE_ROAD_GAP = 1.0e6


def free_road_gap() -> float:
    """Return the sentinel gap used when no leader constrains a vehicle."""
    return FREE_ROAD_GAP


def _pow_chain(base, exponent: float):
    """``base ** exponent`` as a multiply chain for positive integer exponents.

    Python's ``**`` routes through libm pow while numpy uses its own
    vectorized pow; the two disagree by an ULP on some inputs.  A shared
    left-associated multiplication chain makes the scalar and batched
    model paths bit-identical.  Non-integer exponents fall back to pow
    (and then carry no bit-identity guarantee).
    """
    k = int(exponent)
    if float(k) != float(exponent) or k <= 0:
        return base ** exponent
    result = base
    for _ in range(k - 1):
        result = result * base
    return result


class CarFollowingModel:
    """Interface: compute a longitudinal acceleration command.

    A model used by :class:`~repro.sim.engine.SimulationEngine` must
    also provide ``acceleration_batch(v, leader_v, gap, profiles)`` on
    aligned numpy arrays plus a :class:`ProfileArrays`: the engine
    advances every conventional vehicle at once and raises
    ``TypeError`` at construction for a model without it.  The batched
    method must be bit-identical to the scalar one (same operations in
    the same order); policies and the lockstep oracle call the scalar
    one.
    """

    def acceleration(self, v: float, leader_v: float, gap: float,
                     profile: DriverProfile) -> float:
        """Return the commanded acceleration (m/s^2), already bounded."""
        raise NotImplementedError

    @staticmethod
    def _bound(accel: float, limit: float = constants.A_MAX) -> float:
        return min(max(accel, -limit), limit)

    @staticmethod
    def _bound_batch(accel: np.ndarray, limit: float = constants.A_MAX) -> np.ndarray:
        return np.minimum(np.maximum(accel, -limit), limit)


@dataclass
class IDM(CarFollowingModel):
    """Intelligent Driver Model with the standard exponent delta = 4."""

    delta: float = 4.0
    jam_gap: float = 2.0

    def acceleration(self, v: float, leader_v: float, gap: float,
                     profile: DriverProfile) -> float:
        v0 = max(profile.desired_speed, 0.1)
        free_term = 1.0 - _pow_chain(max(v, 0.0) / v0, self.delta)
        if gap >= FREE_ROAD_GAP:
            return self._bound(profile.max_accel * free_term)
        gap = max(gap, 0.1)
        desired_gap = (self.jam_gap + v * profile.time_headway
                       + v * (v - leader_v) / (2.0 * math.sqrt(profile.max_accel * profile.comfort_decel)))
        ratio = max(desired_gap, 0.0) / gap
        interaction = ratio * ratio
        return self._bound(profile.max_accel * (free_term - interaction))

    def acceleration_batch(self, v: np.ndarray, leader_v: np.ndarray,
                           gap: np.ndarray, profiles: ProfileArrays) -> np.ndarray:
        free_term = 1.0 - _pow_chain(np.maximum(v, 0.0) / profiles.desired_speed_floor,
                                     self.delta)
        free = gap >= FREE_ROAD_GAP
        gap = np.maximum(gap, 0.1)
        desired_gap = (self.jam_gap + v * profiles.time_headway
                       + v * (v - leader_v) / profiles.twice_sqrt_accel_decel)
        ratio = np.maximum(desired_gap, 0.0) / gap
        interaction = ratio * ratio
        accel = np.where(free, profiles.max_accel * free_term,
                         profiles.max_accel * (free_term - interaction))
        return self._bound_batch(accel)


@dataclass
class ACC(CarFollowingModel):
    """Linear adaptive cruise control: constant-time-gap spacing policy.

    ``a = k_gap * (gap - desired) + k_speed * (leader_v - v)`` while
    following; plain speed tracking on a free road.
    """

    k_gap: float = 0.23
    k_speed: float = 0.9
    k_free: float = 0.6

    def acceleration(self, v: float, leader_v: float, gap: float,
                     profile: DriverProfile) -> float:
        if gap >= FREE_ROAD_GAP:
            return self._bound(self.k_free * (profile.desired_speed - v))
        desired_gap = profile.min_gap + profile.time_headway * v
        accel = self.k_gap * (gap - desired_gap) + self.k_speed * (leader_v - v)
        return self._bound(min(accel, self.k_free * (profile.desired_speed - v)))

    def acceleration_batch(self, v: np.ndarray, leader_v: np.ndarray,
                           gap: np.ndarray, profiles: ProfileArrays) -> np.ndarray:
        free = gap >= FREE_ROAD_GAP
        free_accel = self.k_free * (profiles.desired_speed - v)
        desired_gap = profiles.min_gap + profiles.time_headway * v
        accel = self.k_gap * (gap - desired_gap) + self.k_speed * (leader_v - v)
        return self._bound_batch(np.where(free, free_accel,
                                          np.minimum(accel, free_accel)))


@dataclass
class Krauss(CarFollowingModel):
    """Krauss stochastic car-following model (SUMO default).

    The safe speed keeps the vehicle able to stop behind its leader:
    ``v_safe = v_l + (gap - v_l * tau) / (v_avg / b + tau)``.  A driver
    imperfection term (sigma) randomly under-accelerates; we expose it
    deterministically through ``dawdle`` so the engine can inject seeded
    noise.
    """

    tau: float = 1.0
    dawdle: float = 0.0

    def acceleration(self, v: float, leader_v: float, gap: float,
                     profile: DriverProfile) -> float:
        dt = constants.DT
        v_desired = min(v + profile.max_accel * dt, profile.desired_speed)
        if gap < FREE_ROAD_GAP:
            # SUMO semantics: keep at least min_gap behind the leader.  The
            # buffer also absorbs the extra half-step travel of the Eq. 18
            # kinematics (dt*(v+v')/2 instead of Krauss's assumed dt*v').
            gap = max(gap - profile.min_gap, 0.0)
            brake = profile.comfort_decel
            v_safe = leader_v + (gap - leader_v * self.tau) / ((v + leader_v) / (2.0 * brake) + self.tau)
            v_desired = min(v_desired, max(v_safe, 0.0))
        v_next = max(v_desired - self.dawdle * profile.max_accel * dt * profile.imperfection, 0.0)
        return self._bound((v_next - v) / dt)

    def acceleration_batch(self, v: np.ndarray, leader_v: np.ndarray,
                           gap: np.ndarray, profiles: ProfileArrays) -> np.ndarray:
        dt = constants.DT
        v_desired = np.minimum(v + profiles.max_accel_step, profiles.desired_speed)
        following = gap < FREE_ROAD_GAP
        gap = np.maximum(gap - profiles.min_gap, 0.0)
        # x * 1.0 == x bitwise in IEEE-754, so the default tau skips a mul.
        headway = leader_v if self.tau == 1.0 else leader_v * self.tau
        v_safe = leader_v + (gap - headway) / ((v + leader_v) / profiles.twice_comfort_decel + self.tau)
        v_desired = np.where(following,
                             np.minimum(v_desired, np.maximum(v_safe, 0.0)),
                             v_desired)
        if self.dawdle == 0.0:
            # The subtrahend is exactly 0.0, and x - 0.0 == x: skip the
            # four dead array ops without changing a single bit.
            v_next = np.maximum(v_desired, 0.0)
        else:
            v_next = np.maximum(
                v_desired - self.dawdle * profiles.max_accel * dt * profiles.imperfection,
                0.0)
        return self._bound_batch((v_next - v) / dt)
