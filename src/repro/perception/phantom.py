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

A :class:`PerceivedScene` is arrays in the tracker's ``(z, 3)`` window
format (:mod:`~repro.perception.tracking`): the ego's window and one
``(42, z, 3)`` block of node windows in graph order -- target C_i at
row ``7 * (i - 1)``, its surroundings C_{i.1}..C_{i.6} after it -- with
one :class:`TrackKind` code and one vid per node.  Phantoms are array
expressions on the reference vehicle's window, written into that block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from ..sim import constants
from ..sim.road import Road
from ..sim.spatial import SpatialHash
from .neighbors import AREA_COUNT, MIRROR_AREA
from .tracking import ObservationBuffer

__all__ = ["TrackKind", "SceneNode", "PerceivedScene", "build_scene",
           "node_row", "phantom_mask", "CONTRIBUTORS", "NODE_COUNT"]

#: Per key area 1..6 (index 0 unused): the lane offset of a phantom in
#: that area (left areas 1/4, right areas 3/6) and the sign of its Eq. 4
#: longitudinal offset (front areas 1-3).
_LANE_DELTA = (0, -1, 0, 1, -1, 0, 1)
_LON_SIGN = (0.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0)

#: Node rows per target: the target itself + its 6 surroundings.
CONTRIBUTORS = AREA_COUNT + 1

#: Node rows of one scene (the paper's 42-node layout).
NODE_COUNT = AREA_COUNT * CONTRIBUTORS


class TrackKind(IntEnum):
    """Provenance of a node in the perceived scene (its kind code).

    The three phantom kinds are consecutive codes.
    """

    OBSERVED = 0
    EGO = 1
    PHANTOM_RANGE = 2
    PHANTOM_INHERENT = 3
    PHANTOM_OCCLUSION = 4
    ZERO = 5

    @property
    def is_phantom(self) -> bool:
        return TrackKind.PHANTOM_RANGE <= self <= TrackKind.PHANTOM_OCCLUSION

    @property
    def label(self) -> str:
        """Lower-case name, e.g. ``"phantom_range"``."""
        return self.name.lower()


def phantom_mask(kinds: np.ndarray) -> np.ndarray:
    """Boolean mask of the phantom codes in a kind-code array."""
    return (kinds >= TrackKind.PHANTOM_RANGE) & (kinds <= TrackKind.PHANTOM_OCCLUSION)


def node_row(area: int, sub_area: int = 0) -> int:
    """Row of C_area (``sub_area`` 0) or C_{area.sub_area} in a scene."""
    return CONTRIBUTORS * (area - 1) + sub_area


class SceneNode(NamedTuple):
    """One node's provenance and current sensed state."""

    kind: TrackKind
    vid: str | None
    lane: int
    lon: float
    v: float


@dataclass
class PerceivedScene:
    """The full 1 + 6 + 36 vehicle layout at one decision step.

    Attributes
    ----------
    ego:
        ``(z, 3)`` window of the autonomous vehicle.
    nodes:
        ``(42, z, 3)`` node windows; row :func:`node_row` ``(i)`` is the
        paper's C_i and ``node_row(i, j)`` is C_{i.j}.  Zero nodes are
        all-zero.
    kinds:
        ``(42,)`` :class:`TrackKind` codes.
    vids:
        The vehicle id each node shows (the ego's id on ego nodes), or
        None for phantom and zero nodes.
    """

    ego: np.ndarray
    nodes: np.ndarray
    kinds: np.ndarray
    vids: list[str | None]

    def node(self, area: int, sub_area: int = 0) -> SceneNode:
        """Kind, vid and current ``(lane, lon, v)`` of C_area
        (``sub_area`` 0) or C_{area.sub_area}."""
        row = node_row(area, sub_area)
        lane, lon, v = self.nodes[row, -1].tolist()
        return SceneNode(TrackKind(int(self.kinds[row])), self.vids[row],
                         int(lane), lon, v)

    def phantom_count(self) -> int:
        """Number of constructed phantom nodes in the scene."""
        return int(phantom_mask(self.kinds).sum())

    def target_mask(self) -> list[float]:
        """Per-target loss/impact mask: 1 only for observed targets."""
        return (self.kinds[::CONTRIBUTORS] == TrackKind.OBSERVED).astype(float).tolist()


def _missing_kind(lane: int, area: int, road: Road) -> TrackKind:
    """Classify a hole in ``area`` around a reference on ``lane``.

    Eq. 5 (a moving road boundary alongside the reference) when the
    reference drives on the outermost lane on that side, else Eq. 4 (a
    phantom at distance R in the area).
    """
    delta = _LANE_DELTA[area]
    if (delta < 0 and lane == 1) or (delta > 0 and lane == road.num_lanes):
        return TrackKind.PHANTOM_INHERENT
    return TrackKind.PHANTOM_RANGE


def _place_phantoms(windows: np.ndarray, kinds: list[TrackKind], areas: list[int],
                    ego: np.ndarray, road: Road,
                    detection_range: float) -> np.ndarray:
    """Eqs. 4-6, in place, on phantom windows holding their reference's window.

    ``kinds`` and ``areas`` give each phantom's kind and key area around
    its reference (the ego, or an observed target).
    """
    inherent = np.array([kind is TrackKind.PHANTOM_INHERENT for kind in kinds])[:, None]
    occlusion = np.array([kind is TrackKind.PHANTOM_OCCLUSION for kind in kinds])[:, None]
    lane = windows[:, :, 0]
    lon = windows[:, :, 1]
    # Eq. 5: the boundary lane just off the road; Eqs. 4 and 6: one lane
    # over in the phantom's area.
    boundary = np.array([0.0 if _LANE_DELTA[area] < 0 else road.num_lanes + 1.0
                         for area in areas])
    delta = np.array([float(_LANE_DELTA[area]) for area in areas])
    lane[:] = np.where(inherent, boundary[:, None], lane + delta[:, None])
    # Eq. 4: R ahead of or behind the reference; Eq. 6: the ego-to-target
    # offset mirrored beyond the target; Eq. 5 keeps the reference's lon.
    offset = np.array([_LON_SIGN[area] * detection_range for area in areas])
    shift = np.where(occlusion, lon - ego[:, 1], offset[:, None])
    lon[:] = np.where(inherent, lon, lon + shift)
    return windows


def build_scene(ego_id: str, buffer: ObservationBuffer, road: Road,
                detection_range: float = constants.SENSOR_RANGE) -> PerceivedScene:
    """Assemble the perceived scene for one decision step.

    Parameters
    ----------
    ego_id:
        The autonomous vehicle.
    buffer:
        Observation buffer already updated with the current frame, the
        ego's own state included; every vehicle observed in that frame
        contributes its window.
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
    ids = [vid for vid in buffer.current_ids() if vid != ego_id]
    count = len(ids)
    names = ids + [ego_id]
    # Windows a node is built from: the observed vehicles, then the ego.
    sources = buffer.windows(names)
    ego = sources[count]

    # One spatial hash answers every neighbor query of the scene: the
    # ego's target selection plus all observed targets' surroundings,
    # as two batched kernel calls.  Rows are the sources -- observed
    # vehicles in sorted-id order with the ego last -- the scalar
    # candidate iteration order, which the kernel's tie-breaking relies
    # on.  Each query center is itself a row; the strict same-lane
    # bounds exclude it from its own result exactly like the scalar
    # candidate filtering.
    lane = sources[:, -1, 0].astype(np.int64)
    lon = sources[:, -1, 1]
    index = SpatialHash(lane, lon, road.num_lanes)
    lanes = lane.tolist()

    # Per node: the source row its window starts from (-1 for a zero
    # node), its kind, its vid, and a phantom's key area around that
    # reference (0 for any other node).
    reference = [-1] * NODE_COUNT
    kinds = [TrackKind.ZERO] * NODE_COUNT
    vids: list[str | None] = [None] * NODE_COUNT
    areas = [0] * NODE_COUNT

    # Step 1: select targets around the ego.
    ego_areas = index.six_area_neighbors(lane[count:], lon[count:])[0].tolist()
    observed: list[int] = []
    for area in range(1, AREA_COUNT + 1):
        node = node_row(area)
        row = ego_areas[area - 1]
        if row >= 0:
            reference[node], kinds[node], vids[node] = row, TrackKind.OBSERVED, names[row]
            observed.append(area)
        else:
            # Step 2a: missing target (Eq. 4 / Eq. 5 with A as reference).
            reference[node], areas[node] = count, area
            kinds[node] = _missing_kind(lanes[count], area, road)
        # Footnote 1: the ego itself surrounds every target.  The other
        # surroundings of a phantom target stay zero: never construct
        # phantoms on top of an uncertain vehicle.
        mirror = node + MIRROR_AREA[area]
        reference[mirror], kinds[mirror], vids[mirror] = count, TrackKind.EGO, ego_id

    # Step 2b: surroundings of each observed target, one batched query.
    if observed:
        centers = [ego_areas[area - 1] for area in observed]
        chosen_rows = index.six_area_neighbors(lane[centers], lon[centers]).tolist()
        for area, center, chosen in zip(observed, centers, chosen_rows):
            for sub_area in range(1, AREA_COUNT + 1):
                if sub_area == MIRROR_AREA[area]:
                    continue
                node = node_row(area, sub_area)
                row = chosen[sub_area - 1]
                if row >= 0:
                    reference[node], vids[node] = row, names[row]
                    kinds[node] = TrackKind.EGO if row == count else TrackKind.OBSERVED
                    continue
                reference[node], areas[node] = center, sub_area
                if sub_area == area and road.is_valid_lane(
                        lanes[center] + _LANE_DELTA[area]):
                    # Eq. 6: prioritized occlusion missing on the aligned
                    # diagonal, while it stays on a drivable lane.
                    kinds[node] = TrackKind.PHANTOM_OCCLUSION
                else:
                    kinds[node] = _missing_kind(lanes[center], sub_area, road)

    # Every non-zero node starts as its reference's window; Eqs. 4-6
    # then move the phantoms among them.
    nodes = np.zeros((NODE_COUNT, ego.shape[0], 3))
    built = [node for node in range(NODE_COUNT) if reference[node] >= 0]
    nodes[built] = sources.take([reference[node] for node in built], axis=0)
    phantoms = [node for node in built if areas[node]]
    if phantoms:
        nodes[phantoms] = _place_phantoms(
            nodes[phantoms], [kinds[node] for node in phantoms],
            [areas[node] for node in phantoms], ego, road, detection_range)
    return PerceivedScene(ego=ego, nodes=nodes,
                          kinds=np.array(kinds, dtype=np.int8), vids=vids)
