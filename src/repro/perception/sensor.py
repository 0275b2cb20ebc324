"""Onboard sensor model: limited detection range and occlusion shadows.

The paper simulates sensor limitations geometrically inside SUMO
(Section V-A): a LiDAR-like sensor with detection radius R = 100 m that
cannot see through other vehicles.  This module reproduces that model
on plan-view geometry: each vehicle is a rectangle (length x width) in
the (lon, lateral-meters) plane, and a target is visible iff it is
within range and the sight line from the ego center to the target
center does not pass through any other vehicle's rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import constants
from ..sim.road import Road
from ..sim.vehicle import VehicleState

__all__ = ["Sensor", "WorldArrays", "clamp_measurement"]

#: Plan-view vehicle width (m) used for occlusion shadows.
VEHICLE_WIDTH = 2.0


def clamp_measurement(state: VehicleState, road: Road,
                      max_speed: float = constants.V_MAX) -> VehicleState:
    """Clamp a (possibly noisy) measurement into the physical envelope.

    Measurement noise must never report a state the simulator itself
    forbids: speeds are non-negative and bounded by the road's physical
    maximum, longitudinal positions stay within one vehicle length of
    the road segment, and lanes stay within the road (the boundary
    lanes 0 and ``num_lanes + 1`` are admitted because phantom
    construction legitimately places moving-boundary vehicles there).
    """
    lat = min(max(state.lat, 0), road.num_lanes + 1)
    lon = min(max(state.lon, -constants.VEHICLE_LENGTH),
              road.length + constants.VEHICLE_LENGTH)
    v = min(max(state.v, 0.0), max_speed)
    if lat == state.lat and lon == state.lon and v == state.v:
        return state
    return VehicleState(lat=lat, lon=lon, v=v)


class WorldArrays:
    """Plan-view columns of one world snapshot, one row per vehicle.

    Built once per snapshot and shared by every ego observing it, so a
    fleet's per-AV sensing cost excludes the gather.  Rows follow the
    world's insertion order and include every vehicle (each ego drops
    its own row at query time); the sensor's noise draws follow that
    order.
    """

    __slots__ = ("ids", "lane", "lon", "v", "lat_m")

    def __init__(self, ids: list[str], lane: np.ndarray, lon: np.ndarray,
                 v: np.ndarray, road: Road) -> None:
        self.ids, self.lane, self.lon, self.v = ids, lane, lon, v
        self.lat_m = lane * road.lane_width

    @property
    def position(self) -> dict[str, int]:
        """The row of every vehicle id."""
        return {vid: row for row, vid in enumerate(self.ids)}

    @classmethod
    def from_states(cls, world: dict[str, VehicleState], road: Road) -> "WorldArrays":
        """Columns of a ``{vid: state}`` snapshot, in dict order."""
        states = list(world.values())
        return cls(list(world), np.array([state.lat for state in states], dtype=np.int64),
                   np.array([state.lon for state in states], dtype=np.float64),
                   np.array([state.v for state in states], dtype=np.float64), road)

    @classmethod
    def from_engine(cls, engine) -> "WorldArrays":
        """The engine's live columns, in the order vehicles were added."""
        order = engine.arrival_order()
        columns = engine.columns
        return cls(list(engine.vehicles), columns.lane[order], columns.lon[order],
                   columns.v[order], engine.road)


@dataclass
class Sensor:
    """Range- and occlusion-limited sensor mounted on the ego vehicle.

    Parameters
    ----------
    detection_range:
        Radius R in meters (paper: 100 m).
    vehicle_length / vehicle_width:
        Obstacle footprint for occlusion shadows.
    position_noise / velocity_noise:
        Std. dev. of zero-mean Gaussian measurement noise on detected
        longitudinal positions (m) and speeds (m/s).  Real detections
        (and the NGSIM recordings the paper trains on) are noisy;
        defaults are noise-free for deterministic unit tests.
    seed:
        Seeds the measurement-noise stream.
    """

    detection_range: float = constants.SENSOR_RANGE
    vehicle_length: float = constants.VEHICLE_LENGTH
    vehicle_width: float = VEHICLE_WIDTH
    position_noise: float = 0.0
    velocity_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        from ..seeding import default_generator

        self._noise_rng = default_generator(self.seed)

    def observe(self, ego_id: str, ego: VehicleState,
                world: dict[str, VehicleState] | WorldArrays,
                road: Road) -> dict[str, VehicleState]:
        """Return the states of all vehicles this sensor can currently see.

        ``world`` holds ground-truth states (the simulator's omniscient
        view) keyed by id, or as :class:`WorldArrays` shared across a
        fleet; the result contains only in-range, unoccluded vehicles,
        excluding the ego itself, and is identical either way.

        The range and occlusion tests run as one vectorized pairwise
        slab (Liang-Barsky) pass over all candidates; touching only an
        obstacle's boundary counts as occluded, the conservative choice
        for a safety system.  Every arithmetic step mirrors the per-pair
        scalar oracle in ``tests/oracles/perception.py``, so the visible
        set is bit-identical to it (pinned by
        ``tests/perception/test_sensor_kernel.py``).
        """
        arrays = world if isinstance(world, WorldArrays) \
            else WorldArrays.from_states(world, road)
        ids, lon, lat_m = arrays.ids, arrays.lon, arrays.lat_m
        try:
            ego_row = ids.index(ego_id)
        except ValueError:   # an ego outside the snapshot
            ego_row = None
        ego_y = ego.lat * road.lane_width
        range_dx = lon - ego.lon
        range_dy = lat_m - ego_y
        in_range = (range_dx * range_dx + range_dy * range_dy
                    <= self.detection_range ** 2)
        keep = np.flatnonzero(in_range)
        if ego_row is not None:
            keep = keep[keep != ego_row]
        if keep.size == 0:
            return {}

        # Occlusion: sight lines run between geometric centers (lon is
        # the front bumper, so centers sit half a length behind it).
        # Rows index sight-line targets, columns index obstacles; each
        # axis of the slab test contributes a clipped parameter window
        # [t_enter, t_exit], except that a degenerate axis (segment
        # parallel to the slab) instead requires the segment origin
        # inside the slab and leaves the window at the neutral [0, 1].
        half_len = self.vehicle_length / 2.0
        half_wid = self.vehicle_width / 2.0
        x0 = ego.lon - half_len
        cx = lon[keep] - half_len          # obstacle/target center x
        cy = lat_m[keep]                   # obstacle/target center y
        dx = cx - x0                       # per-target segment deltas
        dy = cy - ego_y

        def axis_window(delta, origin, lo, hi):
            live = ~(np.abs(delta) < 1e-12)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_a = (lo[None, :] - origin) / delta[:, None]
                t_b = (hi[None, :] - origin) / delta[:, None]
            enter = np.where(live[:, None],
                             np.maximum(np.minimum(t_a, t_b), 0.0), 0.0)
            exit_ = np.where(live[:, None],
                             np.minimum(np.maximum(t_a, t_b), 1.0), 1.0)
            origin_ok = np.broadcast_to((origin >= lo) & (origin <= hi),
                                        t_a.shape)
            return enter, exit_, np.where(live[:, None], True, origin_ok)

        enter_x, exit_x, ok_x = axis_window(dx, x0, cx - half_len, cx + half_len)
        enter_y, exit_y, ok_y = axis_window(dy, ego_y, cy - half_wid, cy + half_wid)
        hit = (ok_x & ok_y
               & (np.maximum(enter_x, enter_y) <= np.minimum(exit_x, exit_y)))
        # Never occluded by itself, nor by an obstacle sitting exactly
        # at the ego center (the ego's own footprint).
        np.fill_diagonal(hit, False)
        ego_like = (np.abs(cx - x0) < 1e-9) & (np.abs(cy - ego_y) < 1e-9)
        hit[:, ego_like] = False
        occluded = hit.any(axis=1)

        seen = keep[~occluded]
        return {ids[row]: self._measure(VehicleState(lat, lon_row, v), road)
                for row, lat, lon_row, v in zip(
                    seen.tolist(), arrays.lane[seen].tolist(),
                    lon[seen].tolist(), arrays.v[seen].tolist())}

    def _measure(self, state: VehicleState, road: Road) -> VehicleState:
        """Apply measurement noise to a detected state, envelope-clamped."""
        if self.position_noise == 0.0 and self.velocity_noise == 0.0:
            return state
        noisy = VehicleState(
            lat=state.lat,
            lon=state.lon + float(self._noise_rng.normal(0.0, self.position_noise)),
            v=state.v + float(self._noise_rng.normal(0.0, self.velocity_noise)),
        )
        return clamp_measurement(noisy, road)
