"""Scalar oracles of the perception kernels.

* :func:`area_of` / :func:`select_neighbors` -- the per-pair six-area
  classifier that :func:`repro.perception.neighbors.select_neighbors_batch`
  and :meth:`repro.sim.spatial.SpatialHash.six_area_neighbors` must
  reproduce, tie-breaking included (first candidate in iteration order
  wins an exact distance tie);
* :func:`in_range` / :func:`is_occluded` /
  :func:`segment_intersects_rectangle` -- the per-candidate range and
  slab occlusion tests that :meth:`repro.perception.sensor.Sensor.observe`
  runs as one vectorized pass.
"""

from __future__ import annotations

from repro.perception.sensor import Sensor
from repro.sim.road import Road
from repro.sim.vehicle import VehicleState


def area_of(center: VehicleState, other: VehicleState) -> int | None:
    """Classify ``other`` into one of the six areas around ``center``.

    Returns 1-6, or None when ``other`` is not classifiable:

    * non-adjacent lane (``|lat difference| > 1``) -> None;
    * same lane at the exact same longitude -> None (that position is
      the center itself);
    * adjacent lane: "ahead" means *strictly* greater longitude, so a
      vehicle exactly alongside (equal longitude, one lane over) falls
      in the rear area (4 on the left, 6 on the right).
    """
    lane_delta = other.lat - center.lat
    if lane_delta not in (-1, 0, 1):
        return None
    ahead = other.lon > center.lon
    if lane_delta == -1:
        return 1 if ahead else 4
    if lane_delta == 0:
        if other.lon == center.lon:
            return None
        return 2 if ahead else 5
    return 3 if ahead else 6


def select_neighbors(center: VehicleState,
                     candidates: dict[str, VehicleState]) -> dict[int, str]:
    """Nearest candidate id per occupied area around ``center``.

    ``candidates`` must not contain the center.
    """
    best: dict[int, tuple[float, str]] = {}
    for vid, state in candidates.items():
        area = area_of(center, state)
        if area is None:
            continue
        distance = abs(state.lon - center.lon)
        if area not in best or distance < best[area][0]:
            best[area] = (distance, vid)
    return {area: vid for area, (_, vid) in best.items()}


def _lateral_meters(state: VehicleState, road: Road) -> float:
    """Lane-center lateral coordinate in meters."""
    return state.lat * road.lane_width


def segment_intersects_rectangle(p0: tuple[float, float], p1: tuple[float, float],
                                 center: tuple[float, float],
                                 half_x: float, half_y: float) -> bool:
    """True when segment p0-p1 crosses an axis-aligned rectangle.

    The slab (Liang-Barsky) clipping test.  Touching only the boundary
    counts as intersecting, which errs on the side of marking targets
    occluded.
    """
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    t_min, t_max = 0.0, 1.0
    for delta, origin, lo, hi in (
        (dx, x0, center[0] - half_x, center[0] + half_x),
        (dy, y0, center[1] - half_y, center[1] + half_y),
    ):
        if abs(delta) < 1e-12:
            if origin < lo or origin > hi:
                return False
            continue
        t_enter = (lo - origin) / delta
        t_exit = (hi - origin) / delta
        if t_enter > t_exit:
            t_enter, t_exit = t_exit, t_enter
        t_min = max(t_min, t_enter)
        t_max = min(t_max, t_exit)
        if t_min > t_max:
            return False
    return True


def in_range(sensor: Sensor, ego: VehicleState, target: VehicleState,
             road: Road) -> bool:
    """Euclidean range test in the plan view."""
    dx = target.lon - ego.lon
    dy = _lateral_meters(target, road) - _lateral_meters(ego, road)
    return dx * dx + dy * dy <= sensor.detection_range ** 2


def is_occluded(sensor: Sensor, ego: VehicleState, target: VehicleState,
                obstacles: dict[str, VehicleState], road: Road,
                target_id: str | None = None) -> bool:
    """True when any obstacle blocks the ego-to-target sight line."""
    # Sight line runs between geometric centers (lon is the front
    # bumper, so the center sits half a length behind it).
    half_len = sensor.vehicle_length / 2.0
    p0 = (ego.lon - half_len, _lateral_meters(ego, road))
    p1 = (target.lon - half_len, _lateral_meters(target, road))
    for vid, state in obstacles.items():
        if target_id is not None and vid == target_id:
            continue
        center = (state.lon - half_len, _lateral_meters(state, road))
        if abs(center[0] - p0[0]) < 1e-9 and abs(center[1] - p0[1]) < 1e-9:
            continue  # the ego itself
        if segment_intersects_rectangle(p0, p1, center,
                                        half_len, sensor.vehicle_width / 2.0):
            return True
    return False
