"""Phantom vehicle construction (paper Section III-B, Eqs. 4-6).

Sensor limitations leave holes in the six-target / six-surrounding
layout of Fig. 2.  Three missing cases are distinguished and filled:

* **range missing** -- beyond the detection radius: a phantom is placed
  at distance R in the corresponding area, moving at the reference
  vehicle's speed (Eq. 4);
* **inherent missing** -- the reference vehicle drives on the leftmost
  or rightmost lane: a phantom rides alongside just off the road as a
  moving boundary (Eq. 5);
* **occlusion missing** -- the outward-aligned neighbor (j == i) hidden
  in the reference target's shadow: a phantom mirrors the ego-to-target
  offset beyond the target (Eq. 6, Fig. 4).

Surroundings of a phantom target are zero-padded rather than built on
top of an uncertain vehicle, except the slot that is the autonomous
vehicle itself (its state is always known).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..sim import constants
from ..sim.road import Road
from ..sim.spatial import SpatialHash
from ..sim.vehicle import VehicleState
from .neighbors import AREA_COUNT, MIRROR_AREA
from .tracking import ObservationBuffer

__all__ = ["TrackKind", "TrackedVehicle", "PerceivedScene", "build_scene"]

#: Area indices whose phantom sits one lane to the left / right.
LEFT_AREAS = frozenset({1, 4})
RIGHT_AREAS = frozenset({3, 6})
FRONT_AREAS = frozenset({1, 2, 3})


class TrackKind(Enum):
    """Provenance of a node in the perceived scene."""

    OBSERVED = "observed"
    EGO = "ego"
    PHANTOM_RANGE = "phantom_range"
    PHANTOM_INHERENT = "phantom_inherent"
    PHANTOM_OCCLUSION = "phantom_occlusion"
    ZERO = "zero"

    @property
    def is_phantom(self) -> bool:
        return self in (TrackKind.PHANTOM_RANGE, TrackKind.PHANTOM_INHERENT,
                        TrackKind.PHANTOM_OCCLUSION)


@dataclass
class TrackedVehicle:
    """One node of the perceived scene: a history plus its provenance."""

    kind: TrackKind
    history: list[VehicleState]
    vid: str | None = None

    @property
    def current(self) -> VehicleState:
        return self.history[-1]

    @property
    def indicator(self) -> float:
        """The IF binary code of Eqs. 7-8: 1 for phantoms, else 0."""
        return 1.0 if self.kind.is_phantom else 0.0


@dataclass
class PerceivedScene:
    """The full 1 + 6 + 36 vehicle layout at one decision step.

    Attributes
    ----------
    ego:
        The autonomous vehicle's track (kind EGO).
    targets:
        ``targets[i]`` for area i in 1..6 (paper's C_i).
    surroundings:
        ``surroundings[(i, j)]`` for the paper's C_{i.j}.
    """

    ego: TrackedVehicle
    targets: dict[int, TrackedVehicle]
    surroundings: dict[tuple[int, int], TrackedVehicle]

    def phantom_count(self) -> int:
        """Number of constructed phantom nodes in the scene."""
        nodes = list(self.targets.values()) + list(self.surroundings.values())
        return sum(1 for node in nodes if node.kind.is_phantom)

    def target_mask(self) -> list[float]:
        """Per-target loss/impact mask: 1 only for observed targets."""
        return [1.0 if self.targets[i].kind is TrackKind.OBSERVED else 0.0
                for i in range(1, AREA_COUNT + 1)]


def _area_lane_delta(area: int) -> int:
    if area in LEFT_AREAS:
        return -1
    if area in RIGHT_AREAS:
        return 1
    return 0


def _range_phantom(reference: list[VehicleState], area: int,
                   detection_range: float) -> list[VehicleState]:
    """Eq. 4: a phantom at distance R in the given area of the reference."""
    sign = 1.0 if area in FRONT_AREAS else -1.0
    delta = _area_lane_delta(area)
    return [VehicleState(lat=state.lat + delta,
                         lon=state.lon + sign * detection_range,
                         v=state.v)
            for state in reference]


def _inherent_phantom(reference: list[VehicleState], area: int,
                      num_lanes: int) -> list[VehicleState]:
    """Eq. 5: a moving road boundary alongside the reference vehicle."""
    lane = 0 if area in LEFT_AREAS else num_lanes + 1
    return [VehicleState(lat=lane, lon=state.lon, v=state.v) for state in reference]


def _occlusion_phantom(target: list[VehicleState],
                       ego: list[VehicleState], area: int) -> list[VehicleState]:
    """Eq. 6: mirror the ego-to-target longitudinal offset beyond the target."""
    delta = _area_lane_delta(area)
    return [VehicleState(lat=t_state.lat + delta,
                         lon=t_state.lon + (t_state.lon - e_state.lon),
                         v=t_state.v)
            for t_state, e_state in zip(target, ego)]


_ZERO_TRACKS: dict[int, TrackedVehicle] = {}


def _zero_track(steps: int) -> TrackedVehicle:
    """Shared all-zero padding node (scenes treat nodes as read-only,
    so one instance per history length serves every zero slot)."""
    track = _ZERO_TRACKS.get(steps)
    if track is None:
        zero = VehicleState(lat=0, lon=0.0, v=0.0)
        track = TrackedVehicle(TrackKind.ZERO, [zero] * steps)
        _ZERO_TRACKS[steps] = track
    return track


def _missing_kind(reference_lane: int, area: int, road: Road) -> TrackKind:
    """Classify a hole around an observed reference vehicle (Eqs. 4-5)."""
    if reference_lane == 1 and area in LEFT_AREAS:
        return TrackKind.PHANTOM_INHERENT
    if reference_lane == road.num_lanes and area in RIGHT_AREAS:
        return TrackKind.PHANTOM_INHERENT
    return TrackKind.PHANTOM_RANGE


def _build_missing(reference: list[VehicleState], area: int,
                   road: Road, detection_range: float) -> TrackedVehicle:
    kind = _missing_kind(reference[-1].lat, area, road)
    if kind is TrackKind.PHANTOM_INHERENT:
        history = _inherent_phantom(reference, area, road.num_lanes)
    else:
        history = _range_phantom(reference, area, detection_range)
    return TrackedVehicle(kind, history)


def build_scene(ego_id: str, ego_history: list[VehicleState],
                buffer: ObservationBuffer, road: Road,
                detection_range: float = constants.SENSOR_RANGE) -> PerceivedScene:
    """Assemble the perceived scene for one decision step.

    Parameters
    ----------
    ego_id / ego_history:
        The autonomous vehicle and its last z states (oldest first).
    buffer:
        Observation buffer already updated with the current frame; every
        tracked vehicle contributes its z-step history.
    road:
        Geometry (for inherent-missing classification).
    detection_range:
        Sensor radius R used for range phantoms.

    Returns
    -------
    A :class:`PerceivedScene` with all 6 targets and 36 surroundings
    filled by observation, phantom construction, ego sharing, or
    zero-padding.
    """
    steps = len(ego_history)
    ego = TrackedVehicle(TrackKind.EGO, list(ego_history), vid=ego_id)
    observed_now = {vid: buffer.current(vid) for vid in buffer.current_ids()
                    if vid != ego_id}

    # A vehicle can fill several node slots (a target and multiple
    # surroundings); share one padded history list per vid.  Nodes treat
    # histories as read-only, so aliasing is safe.
    histories: dict[str, list[VehicleState]] = {}

    def history_of(vid: str) -> list[VehicleState]:
        cached = histories.get(vid)
        if cached is None:
            cached = buffer.history(vid)
            histories[vid] = cached
        return cached

    # One spatial hash answers every neighbor query of the scene: the
    # ego's target selection plus all observed targets' surroundings,
    # as two batched kernel calls instead of up to 7 * |observed|
    # per-pair classifications.  Rows are the observed candidates in
    # buffer order with the ego last -- the scalar candidate iteration
    # order, which the kernel's tie-breaking relies on.  Each query
    # center is itself a row; the strict same-lane bounds exclude it
    # from its own result exactly like the scalar candidate filtering.
    count = len(observed_now)
    ids = list(observed_now)
    lane = np.empty(count + 1, dtype=np.int64)
    lon = np.empty(count + 1, dtype=np.float64)
    for row, vid in enumerate(ids):
        state = observed_now[vid]
        lane[row] = state.lat
        lon[row] = state.lon
    lane[count] = ego.current.lat
    lon[count] = ego.current.lon
    index = SpatialHash(lane, lon, road.num_lanes)

    # Step 1: select targets around the ego.
    ego_areas = index.six_area_neighbors(lane[count:], lon[count:])[0]
    targets: dict[int, TrackedVehicle] = {}
    for area in range(1, AREA_COUNT + 1):
        row = int(ego_areas[area - 1])
        if row >= 0:
            vid = ids[row]
            targets[area] = TrackedVehicle(TrackKind.OBSERVED, history_of(vid), vid=vid)
        else:
            # Step 2a: missing target (Eq. 4 / Eq. 5 with A as reference).
            targets[area] = _build_missing(ego_history, area, road, detection_range)

    # Step 2b: surroundings of each observed target, one batched query.
    observed_areas = [area for area in range(1, AREA_COUNT + 1)
                      if not targets[area].kind.is_phantom]
    if observed_areas:
        sub_rows = index.six_area_neighbors(
            np.fromiter((targets[area].current.lat for area in observed_areas),
                        dtype=np.int64, count=len(observed_areas)),
            np.fromiter((targets[area].current.lon for area in observed_areas),
                        dtype=np.float64, count=len(observed_areas)))
    surroundings: dict[tuple[int, int], TrackedVehicle] = {}
    observed_position = 0
    for area in range(1, AREA_COUNT + 1):
        target = targets[area]
        mirror = MIRROR_AREA[area]
        if target.kind.is_phantom:
            # Never construct phantoms on top of an uncertain vehicle.
            for sub_area in range(1, AREA_COUNT + 1):
                surroundings[(area, sub_area)] = \
                    ego if sub_area == mirror else _zero_track(steps)
            continue
        chosen = sub_rows[observed_position]
        observed_position += 1
        for sub_area in range(1, AREA_COUNT + 1):
            if sub_area == mirror:
                # Footnote 1: the ego itself surrounds every target.
                surroundings[(area, sub_area)] = ego
                continue
            row = int(chosen[sub_area - 1])
            if 0 <= row < count:
                vid = ids[row]
                surroundings[(area, sub_area)] = TrackedVehicle(
                    TrackKind.OBSERVED, history_of(vid), vid=vid)
            elif row == count:
                surroundings[(area, sub_area)] = ego
            elif sub_area == area and _occlusion_possible(target.current, area, road):
                # Eq. 6: prioritized occlusion missing on the aligned diagonal.
                surroundings[(area, sub_area)] = TrackedVehicle(
                    TrackKind.PHANTOM_OCCLUSION,
                    _occlusion_phantom(target.history, ego_history, area))
            else:
                surroundings[(area, sub_area)] = _build_missing(
                    target.history, sub_area, road, detection_range)

    return PerceivedScene(ego=ego, targets=targets, surroundings=surroundings)


def _occlusion_possible(target: VehicleState, area: int, road: Road) -> bool:
    """The Eq. 6 construction must stay on a drivable lane."""
    lane = target.lat + _area_lane_delta(area)
    return road.is_valid_lane(lane)
