"""Vehicle state containers.

A vehicle carries kinematic state (lane, longitudinal position,
velocity), the most recent commanded acceleration (needed by the jerk
comfort term), and driver-model parameters for conventional vehicles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable

import numpy as np

from . import constants

__all__ = ["VehicleState", "Vehicle", "DriverProfile", "ProfileArrays", "ProfileView"]


@dataclass(frozen=True)
class VehicleState:
    """Immutable kinematic snapshot of one vehicle at one time step.

    ``lat`` is the lane number (paper's ``.lat``), ``lon`` the distance
    from the road origin (paper's ``.lon``), ``v`` the longitudinal
    velocity.
    """

    lat: int
    lon: float
    v: float

    def advanced(self, lane_delta: int, accel: float, dt: float = constants.DT,
                 v_min: float = 0.0, v_max: float = constants.V_MAX) -> "VehicleState":
        """Return the next state under Eq. 18 kinematics.

        Velocity is clamped to ``[v_min, v_max]`` after integration; the
        position update uses the commanded acceleration for the full
        step, matching the paper's transition model.
        """
        new_v = min(max(self.v + accel * dt, v_min), v_max)
        new_lon = self.lon + self.v * dt + 0.5 * accel * dt * dt
        return VehicleState(lat=self.lat + lane_delta, lon=new_lon, v=new_v)


@dataclass
class DriverProfile:
    """Heterogeneous human-driver parameters for conventional vehicles.

    Randomizing these per vehicle produces the diverse, NGSIM-like
    traffic mix the paper evaluates in (and generates REAL from).
    """

    desired_speed: float = constants.V_MAX
    time_headway: float = 1.5
    min_gap: float = 2.0
    max_accel: float = 2.0
    comfort_decel: float = 2.5
    politeness: float = 0.3
    lane_change_threshold: float = 0.2
    imperfection: float = 0.2


@dataclass(frozen=True)
class ProfileArrays:
    """Struct-of-arrays view of :class:`DriverProfile` fields.

    The vectorized car-following and lane-change models consume one
    column per driver parameter instead of touching Python objects in
    their inner loops.  Field order mirrors ``DriverProfile``.
    """

    desired_speed: np.ndarray
    time_headway: np.ndarray
    min_gap: np.ndarray
    max_accel: np.ndarray
    comfort_decel: np.ndarray
    politeness: np.ndarray
    lane_change_threshold: np.ndarray
    imperfection: np.ndarray

    @classmethod
    def from_profiles(cls, profiles: Iterable[DriverProfile]) -> "ProfileArrays":
        """Gather one column per parameter from driver profiles.

        The engine caches the result until the population changes;
        profiles are mutable, so code that rewrites one mid-run (e.g.
        the synthetic-trajectory slowdown events) must call
        ``SimulationEngine.invalidate_profiles``.
        """
        rows = [(profile.desired_speed, profile.time_headway, profile.min_gap,
                 profile.max_accel, profile.comfort_decel, profile.politeness,
                 profile.lane_change_threshold, profile.imperfection)
                for profile in profiles]
        if not rows:
            return cls(*np.empty((len(fields(cls)), 0)))
        return cls(*np.ascontiguousarray(np.array(rows).T))

    def take(self, indices: np.ndarray) -> "ProfileArrays":
        """Row-gather every column (numpy fancy-indexing semantics)."""
        return ProfileArrays(
            self.desired_speed[indices], self.time_headway[indices],
            self.min_gap[indices], self.max_accel[indices],
            self.comfort_decel[indices], self.politeness[indices],
            self.lane_change_threshold[indices], self.imperfection[indices])

    def view(self, rows: np.ndarray) -> "ProfileView":
        """Lazy row-gather: columns materialize on first access.

        Car-following models touch only a subset of the parameters, so a
        lazy view skips the unused gathers that :meth:`take` would pay
        for.  Gathering a column after an elementwise op yields the same
        bits as the op after the gather, so derived columns stay
        bit-identical too.
        """
        return ProfileView(self, rows)

    # Derived columns the models would otherwise recompute per step.
    # These are pure hoists -- the same operations on the same inputs as
    # the scalar formulas, evaluated once per profile-cache lifetime --
    # so the bit-identity guarantee is unaffected.  (cached_property
    # stores into the instance dict, which a frozen dataclass permits.)

    @cached_property
    def max_accel_step(self) -> np.ndarray:
        """``max_accel * DT``: one-step speed gain (Krauss)."""
        return self.max_accel * constants.DT

    @cached_property
    def twice_comfort_decel(self) -> np.ndarray:
        """``2 * comfort_decel``: Krauss safe-speed denominator term."""
        return 2.0 * self.comfort_decel

    @cached_property
    def half_max_accel(self) -> np.ndarray:
        """``0.5 * max_accel``: dawdle reduction scale."""
        return 0.5 * self.max_accel

    @cached_property
    def min_gap_floor(self) -> np.ndarray:
        """``max(min_gap, 1)``: MOBIL blocking-gap threshold."""
        return np.maximum(self.min_gap, 1.0)

    @cached_property
    def imperfect(self) -> np.ndarray:
        """``imperfection > 0``: rows that draw dawdle noise."""
        return self.imperfection > 0.0

    @cached_property
    def fully_imperfect(self) -> bool:
        """Whether every driver has a positive imperfection."""
        return bool(self.imperfect.all())

    @cached_property
    def desired_speed_floor(self) -> np.ndarray:
        """``max(desired_speed, 0.1)``: IDM reference speed."""
        return np.maximum(self.desired_speed, 0.1)

    @cached_property
    def twice_sqrt_accel_decel(self) -> np.ndarray:
        """``2 * sqrt(max_accel * comfort_decel)``: IDM gap denominator."""
        return 2.0 * np.sqrt(self.max_accel * self.comfort_decel)


class ProfileView:
    """Row-gathered facade over :class:`ProfileArrays` (see ``view``).

    Each attribute access gathers the corresponding column (base or
    derived) through the stored row indices and caches the result on the
    instance, so repeated access costs one fancy-index at most.
    """

    def __init__(self, base: ProfileArrays, rows: np.ndarray) -> None:
        self._base = base
        self._rows = rows

    def __getattr__(self, name: str) -> np.ndarray:
        column = getattr(self._base, name)[self._rows]
        self.__dict__[name] = column
        return column


@dataclass
class Vehicle:
    """Mutable vehicle record owned by the simulation engine."""

    vid: str
    state: VehicleState
    length: float = constants.VEHICLE_LENGTH
    is_autonomous: bool = False
    profile: DriverProfile = field(default_factory=DriverProfile)
    accel: float = 0.0
    prev_accel: float = 0.0
    spawn_time: int = 0
    finish_time: int | None = None
    cooldown: int = 0

    @property
    def lane(self) -> int:
        return self.state.lat

    @property
    def lon(self) -> float:
        return self.state.lon

    @property
    def v(self) -> float:
        return self.state.v

    @property
    def rear(self) -> float:
        """Longitudinal position of the rear bumper."""
        return self.state.lon - self.length

    def gap_to(self, leader: "Vehicle") -> float:
        """Bumper-to-bumper gap to a leader in the same lane (m)."""
        return leader.rear - self.state.lon
