"""Vehicle state: columns for the world, row handles for one vehicle.

A vehicle carries kinematic state (lane, longitudinal position,
velocity), the most recent commanded acceleration (needed by the jerk
comfort term), and driver-model parameters for conventional vehicles.
:class:`VehicleColumns` holds these as one numpy array per field and
one row per vehicle; the simulation engine keeps its whole population
in one instance.  A :class:`Vehicle` is a handle on one row.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np

from . import constants

__all__ = ["VehicleState", "Vehicle", "VehicleColumns", "DriverProfile",
           "ProfileArrays", "ProfileView"]


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


@dataclass(frozen=True)
class DriverProfile:
    """Heterogeneous human-driver parameters for conventional vehicles.

    Randomizing these per vehicle produces the diverse, NGSIM-like
    traffic mix the paper evaluates in (and generates REAL from).
    Frozen: a vehicle's profile lives in its row, so a change is an
    assignment, ``vehicle.profile = dataclasses.replace(...)``.
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
        """Gather one column per parameter from driver profiles."""
        rows = [(profile.desired_speed, profile.time_headway, profile.min_gap,
                 profile.max_accel, profile.comfort_decel, profile.politeness,
                 profile.lane_change_threshold, profile.imperfection)
                for profile in profiles]
        if not rows:
            return cls(*np.empty((len(fields(cls)), 0)))
        return cls(*np.ascontiguousarray(np.array(rows).T))

    def columns(self) -> list[np.ndarray]:
        """The base columns, in ``DriverProfile`` field order."""
        return [self.desired_speed, self.time_headway, self.min_gap,
                self.max_accel, self.comfort_decel, self.politeness,
                self.lane_change_threshold, self.imperfection]

    def view(self, rows: np.ndarray) -> "ProfileView":
        """Lazy row-gather: columns materialize on first access.

        Car-following models touch only a subset of the parameters, so a
        lazy view skips the unused gathers of a full row-gather.
        Gathering a column after an elementwise op yields the same bits
        as the op after the gather, so derived columns stay bit-identical
        too.
        """
        return ProfileView(self, rows)

    # Derived columns the models would otherwise recompute per step.
    # These are pure hoists -- the same operations on the same inputs as
    # the scalar formulas, evaluated once per instance -- so the
    # bit-identity guarantee is unaffected.  A VehicleColumns stores the
    # array-valued ones next to the base columns and fills them into its
    # instance, so a row gather carries them; a profile write recomputes
    # the written row's (see Vehicle.profile).  (cached_property stores
    # into the instance dict, which a frozen dataclass permits.)

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


#: Per-vehicle columns besides the profile, with their defaults.
#: ``arrival`` numbers vehicles in the order the engine added them.
_COLUMNS = {"lane": 0, "lon": 0.0, "v": 0.0, "accel": 0.0, "prev_accel": 0.0,
            "cooldown": 0, "length": constants.VEHICLE_LENGTH,
            "is_autonomous": False, "spawn_time": 0, "arrival": 0}

_PROFILE = tuple(field.name for field in fields(ProfileArrays))

#: A table's storage: one 2-D block per dtype, whose first axis is the
#: field (each column array is one line of a block) and whose second is
#: the row.  The profile's array-valued derived columns ride along.
_BLOCKS = (
    (np.float64, ("lon", "v", "accel", "prev_accel", "length", *_PROFILE,
                  "max_accel_step", "twice_comfort_decel", "half_max_accel",
                  "min_gap_floor", "desired_speed_floor",
                  "twice_sqrt_accel_decel")),
    (np.int64, ("lane", "cooldown", "spawn_time", "arrival")),
    (np.bool_, ("is_autonomous", "imperfect")),
)
_WHERE = {name: (block, line) for block, (_, names) in enumerate(_BLOCKS)
          for line, name in enumerate(names)}
_DERIVED = tuple(name for name in _WHERE if name not in _COLUMNS
                 and name not in _PROFILE)
_BASE = slice(_WHERE[_PROFILE[0]][1], _WHERE[_PROFILE[-1]][1] + 1)


class VehicleColumns:
    """A population of vehicles as columns, one row per vehicle.

    Each field of ``_COLUMNS`` is one numpy array (a column not given
    takes its default in every row), and ``profiles`` holds the driver
    parameters with the derived columns of ``_DERIVED`` already filled
    in.  All of them are lines of one 2-D block per dtype (``_BLOCKS``),
    so gathering, merging or compacting rows is one numpy call per
    block; the column arrays are views of the blocks, made on first
    access.  ``index`` is the lane index over the current rows (kept by
    the engine) or None when a position or the population changed since
    it was built.
    """

    def __init__(self, profiles: ProfileArrays, **columns) -> None:
        count = len(profiles.desired_speed)
        self._blocks = tuple(np.empty((len(names), count), dtype)
                             for dtype, names in _BLOCKS)
        self.index = None
        for name, default in _COLUMNS.items():
            getattr(self, name)[:] = columns.pop(name, default)
        if columns:
            raise TypeError(f"unknown vehicle columns: {sorted(columns)}")
        self._blocks[0][_BASE] = profiles.columns()
        self.derive(slice(None))

    def __getattr__(self, name: str):
        # Column views and the profile arrays are made on first access.
        if name == "profiles":
            value = ProfileArrays(*self._blocks[0][_BASE])
            value.__dict__.update((derived, self._view(derived))
                                  for derived in _DERIVED)
        elif name in _COLUMNS:
            value = self._view(name)
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def __getstate__(self) -> dict:
        # A copy keeps the blocks only; its views are made anew, so they
        # see the copied blocks.
        return {"_blocks": self._blocks, "index": self.index}

    def _view(self, name: str) -> np.ndarray:
        block, line = _WHERE[name]
        return self._blocks[block][line]

    @classmethod
    def _over(cls, blocks) -> "VehicleColumns":
        """An instance holding ``blocks`` as they are."""
        table = object.__new__(cls)
        table.__dict__.update(_blocks=tuple(blocks), index=None)
        return table

    def derive(self, rows: slice) -> None:
        """Recompute the derived profile columns of ``rows`` from the base ones."""
        base = ProfileArrays(*self._blocks[0][_BASE, rows])
        for name in _DERIVED:
            self._view(name)[rows] = getattr(base, name)
        self.__dict__.pop("profiles", None)   # fully_imperfect may change

    def take(self, rows) -> "VehicleColumns":
        """A copy of the given rows (integer row indices)."""
        return VehicleColumns._over(block.take(rows, axis=1)
                                    for block in self._blocks)

    def merge(self, at: list[int], other: "VehicleColumns") -> "VehicleColumns":
        """These rows with ``other``'s row k put before row ``at[k]`` (``at``
        nondecreasing), as a new instance copied span by span.  (After the
        last span, ``theirs[:, k:k + 1]`` is empty.)"""
        spans = list(enumerate(zip([0, *at], [*at, self._blocks[0].shape[1]])))
        return VehicleColumns._over(
            np.concatenate([piece for k, (start, stop) in spans
                            for piece in (mine[:, start:stop], theirs[:, k:k + 1])],
                           axis=1)
            for mine, theirs in zip(self._blocks, other._blocks))

    def split(self, rows: list[int]) -> tuple["VehicleColumns", "VehicleColumns"]:
        """All rows but ``rows`` (ascending), copied span by span, and a
        read-only copy of ``rows``."""
        spans = [slice(start + 1, stop) for start, stop
                 in zip([-1, *rows], [*rows, self._blocks[0].shape[1]])]
        kept, gone = [], []
        for block in self._blocks:
            kept.append(np.concatenate([block[:, span] for span in spans], axis=1))
            gone.append(block.take(rows, axis=1))
            gone[-1].setflags(write=False)
        return VehicleColumns._over(kept), VehicleColumns._over(gone)

    def assign(self, other: "VehicleColumns") -> None:
        """Take over ``other``'s rows in place; the lane index goes stale."""
        self.__dict__ = {"_blocks": other._blocks, "index": None}


def _column(name: str, doc: str, writable: bool = True) -> property:
    """Property reading (and writing) the handle's row of column ``name``."""
    def read(vehicle: "Vehicle"):
        return getattr(vehicle._table, name).item(vehicle._row)

    def write(vehicle: "Vehicle", value) -> None:
        getattr(vehicle._table, name)[vehicle._row] = value

    return property(read, write if writable else None, doc=doc)


class Vehicle:
    """A handle on one vehicle's row of a :class:`VehicleColumns`.

    A vehicle built by hand holds its values in a one-row table of its
    own.  ``SimulationEngine.add_vehicle`` adopts it: from then on every
    read and write goes to its row of the engine's columns, so the next
    step sees the write.  Retiring or discarding it detaches it again
    onto a read-only copy of its final row.
    """

    __slots__ = ("vid", "finish_time", "_table", "_row")

    def __init__(self, vid: str, state: VehicleState,
                 length: float = constants.VEHICLE_LENGTH,
                 is_autonomous: bool = False,
                 profile: DriverProfile = DriverProfile(),
                 accel: float = 0.0, prev_accel: float = 0.0,
                 spawn_time: int = 0, finish_time: int | None = None,
                 cooldown: int = 0) -> None:
        self.vid = vid
        self.finish_time = finish_time
        self._table = VehicleColumns(
            ProfileArrays.from_profiles([profile]), lane=state.lat,
            lon=state.lon, v=state.v, length=length,
            is_autonomous=is_autonomous, accel=accel, prev_accel=prev_accel,
            spawn_time=spawn_time, cooldown=cooldown)
        self._row = 0

    lane = _column("lane", "Lane number (the paper's ``.lat``).", writable=False)
    lon = _column("lon", "Front-bumper position from the road origin (m).",
                  writable=False)
    v = _column("v", "Longitudinal velocity (m/s).", writable=False)
    accel = _column("accel", "Acceleration commanded at the last step.")
    prev_accel = _column("prev_accel", "Acceleration of the step before.")
    cooldown = _column("cooldown", "Steps until MOBIL may change lane again.")
    length = _column("length", "Vehicle length (m).")
    is_autonomous = _column("is_autonomous", "Whether the decision stack drives it.")
    spawn_time = _column("spawn_time", "Step at which the engine added it.")

    @property
    def state(self) -> VehicleState:
        """Kinematic snapshot; assigning one moves the vehicle."""
        table, row = self._table, self._row
        return VehicleState(table.lane.item(row), table.lon.item(row),
                            table.v.item(row))

    @state.setter
    def state(self, state: VehicleState) -> None:
        table, row = self._table, self._row
        table.lane[row] = state.lat
        table.lon[row] = state.lon
        table.v[row] = state.v
        table.index = None

    @property
    def profile(self) -> DriverProfile:
        """Driver parameters; assign a new profile to change them."""
        return DriverProfile(*[column.item(self._row)
                               for column in self._table.profiles.columns()])

    @profile.setter
    def profile(self, profile: DriverProfile) -> None:
        table, row = self._table, self._row
        for column, value in zip(table.profiles.columns(), astuple(profile)):
            column[row] = value
        table.derive(slice(row, row + 1))

    @property
    def rear(self) -> float:
        """Longitudinal position of the rear bumper."""
        return self.lon - self.length

    def gap_to(self, leader: "Vehicle") -> float:
        """Bumper-to-bumper gap to a leader in the same lane (m)."""
        return leader.rear - self.lon

    def __repr__(self) -> str:
        return f"Vehicle({self.vid!r}, {self.state})"
