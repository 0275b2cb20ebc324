"""Lane-sorted spatial index with batched neighbor kernels.

:class:`SpatialHash` is the one lane index of the package: one
``lexsort`` over ``(lane, lon)`` builds per-lane sorted segments, after
which every neighbor query is a ``searchsorted`` on a contiguous slice.
Two query families share the index:

``neighbors`` / ``leader`` / ``follower``
    Nearest same-lane leader/follower per query row (batched) or for
    one position (scalar) — the engine's car-following topology
    (strictly ahead / strictly behind).

``six_area_neighbors``
    The paper's six key areas (Fig. 2) for *M* centers at once,
    returning an ``(M, 6)`` matrix of row indices (-1 when an area is
    empty).  Column ``k`` is area ``k+1``: front-left, front, front-
    right, rear-left, rear, rear-right.  The kernel is bit-identical to
    the scalar per-pair classifier kept as the test oracle
    ``tests/oracles/perception.py``, including its tie-breaking (see
    below).

Tie-breaking contract
---------------------
The scalar classifier scans candidates in iteration order and keeps the
first minimum-distance hit per area (strict ``<`` comparison).  Two
candidates tie only when they share both lane and longitude, and
``lexsort`` is stable, so equal ``(lane, lon)`` rows preserve input
order inside a sorted run.  Rear queries therefore snap to the *first*
row of an equal-longitude run; front queries land there automatically
(``side='right'`` returns the first strictly-greater element).  Callers
must supply rows in the scalar candidate-iteration order for ties to
resolve identically.

Area semantics mirror the scalar classifier exactly: "ahead" is
strictly greater longitude, so a same-lane candidate at the center's
exact position is excluded (self-exclusion), while an *adjacent*-lane
candidate exactly alongside counts as rear (areas 4/6 use an inclusive
bound).
"""

from __future__ import annotations

import numpy as np

#: Sentinel index meaning "no neighbor in this area".
NO_NEIGHBOR = -1

_NO_NEIGHBOR = np.array([NO_NEIGHBOR])


class SpatialHash:
    """Lane-sorted position arrays for one-shot batched neighbor queries.

    Parameters
    ----------
    lane:
        Integer lane per row (lanes are 1-based; out-of-range lanes are
        tolerated and simply never matched).
    lon:
        Longitudinal position per row.
    num_lanes:
        Number of lanes on the road.
    """

    __slots__ = ("order", "sorted_lon", "starts", "num_lanes", "_lane_ids")

    def __init__(self, lane: np.ndarray, lon: np.ndarray, num_lanes: int) -> None:
        self.order = np.lexsort((lon, lane))
        sorted_lane = lane[self.order]
        self.sorted_lon = lon[self.order]
        # python-int starts keep the query loop off numpy scalar indexing.
        self.starts = sorted_lane.searchsorted(np.arange(1, num_lanes + 2)).tolist()
        self.num_lanes = num_lanes
        self._lane_ids: dict[int, np.ndarray] = {}

    def _ids_with_sentinel(self, lane_no: int, start: int, stop: int) -> np.ndarray:
        """Row ids of one lane segment plus the trailing -1 sentinel.

        Cached per lane: every query family re-reads the same segments,
        and the concatenation is the only allocation in the hot loop.
        """
        cached = self._lane_ids.get(lane_no)
        if cached is None:
            cached = np.concatenate((self.order[start:stop], _NO_NEIGHBOR))
            self._lane_ids[lane_no] = cached
        return cached

    def neighbors(self, query_lane: np.ndarray, query_lon: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row indices of the nearest leader/follower (-1 when absent)."""
        count = query_lane.shape[0]
        leader = np.full(count, NO_NEIGHBOR, dtype=np.int64)
        follower = np.full(count, NO_NEIGHBOR, dtype=np.int64)
        starts = self.starts
        sorted_lon = self.sorted_lon
        for lane_no in range(1, self.num_lanes + 1):
            start = starts[lane_no - 1]
            stop = starts[lane_no]
            if start == stop:
                continue
            mask = query_lane == lane_no
            segment = sorted_lon[start:stop]
            # Trailing -1 sentinel: a query past the last vehicle indexes
            # position ``size`` and one before the first indexes ``-1``,
            # both landing on the sentinel -- no clamping or masking.
            ids = self._ids_with_sentinel(lane_no, start, stop)
            lon_in_lane = query_lon[mask]
            leader[mask] = ids[segment.searchsorted(lon_in_lane, side="right")]
            follower[mask] = ids[segment.searchsorted(lon_in_lane, side="left") - 1]
        return leader, follower

    def _segment(self, lane_no: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted longitudes of one lane and their ids plus the sentinel."""
        start = self.starts[lane_no - 1]
        stop = self.starts[lane_no]
        return (self.sorted_lon[start:stop],
                self._ids_with_sentinel(lane_no, start, stop))

    def leader(self, lane_no: int, lon: float) -> int:
        """Row of the nearest vehicle strictly ahead of ``lon`` (-1 when none)."""
        if lane_no < 1 or lane_no > self.num_lanes:
            return NO_NEIGHBOR
        segment, ids = self._segment(lane_no)
        return int(ids[segment.searchsorted(lon, side="right")])

    def follower(self, lane_no: int, lon: float) -> int:
        """Row of the nearest vehicle strictly behind ``lon`` (-1 when none)."""
        if lane_no < 1 or lane_no > self.num_lanes:
            return NO_NEIGHBOR
        segment, ids = self._segment(lane_no)
        return int(ids[segment.searchsorted(lon, side="left") - 1])

    def _lane_pass(self, query_lane: np.ndarray, query_lon: np.ndarray,
                   inclusive_rear: bool) -> tuple[np.ndarray, np.ndarray]:
        """Nearest front/rear row index per query against one lane column
        (the batched half of :meth:`six_area_neighbors`).

        ``inclusive_rear`` selects the adjacent-lane semantics where a
        candidate exactly alongside (equal lon) counts as rear; the
        same-lane pass uses the strict bound so the center never matches
        itself.  Rear hits are snapped to the first row of their
        equal-longitude run to reproduce the scalar first-wins tie-break.
        """
        count = query_lane.shape[0]
        front = np.full(count, NO_NEIGHBOR, dtype=np.int64)
        rear = np.full(count, NO_NEIGHBOR, dtype=np.int64)
        starts = self.starts
        sorted_lon = self.sorted_lon
        num_lanes = self.num_lanes
        # Iterate only lanes present in the query: fleet-side queries are
        # a handful of rows spanning at most three lanes, so scanning all
        # lanes would spend the whole pass on empty-mask bookkeeping.
        # (A python set beats np.unique at these sizes by an order of
        # magnitude; sorting keeps the visit order deterministic.)
        for lane_no in sorted(set(query_lane.tolist())):
            if lane_no < 1 or lane_no > num_lanes:
                continue
            start = starts[lane_no - 1]
            stop = starts[lane_no]
            if start == stop:
                continue
            mask = query_lane == lane_no
            segment = sorted_lon[start:stop]
            ids = self._ids_with_sentinel(lane_no, start, stop)
            lon_in_lane = query_lon[mask]
            first_greater = segment.searchsorted(lon_in_lane, side="right")
            front[mask] = ids[first_greater]
            if inclusive_rear:
                rear_pos = first_greater - 1
            else:
                rear_pos = segment.searchsorted(lon_in_lane, side="left") - 1
            valid = rear_pos >= 0
            if valid.any():
                # Snap within the equal-lon run: lexsort stability makes
                # the run's first row the scalar tie-break winner.
                snapped = segment.searchsorted(segment[rear_pos[valid]],
                                               side="left")
                rear_pos[valid] = snapped
            rear[mask] = ids[rear_pos]
        return front, rear

    def six_area_neighbors(self, center_lane: np.ndarray,
                           center_lon: np.ndarray) -> np.ndarray:
        """``(M, 6)`` nearest-row matrix for the paper's six key areas.

        Column ``k`` holds area ``k+1``; entries are indices into the
        rows this hash was built from, or -1 when the area is empty.
        Centers that are themselves hash rows are excluded from their
        own same-lane areas by the strict bounds; an adjacent-lane
        candidate exactly alongside lands in areas 4/6 (rear), as in the
        scalar classifier.
        """
        count = center_lane.shape[0]
        if count <= 4:
            # Fused scalar path: one allocation, per-row searchsorted
            # directly into the result matrix.  Same arithmetic as the
            # batched passes below, so the entries are identical.
            result = np.full((count, 6), NO_NEIGHBOR, dtype=np.int64)
            starts = self.starts
            sorted_lon = self.sorted_lon
            num_lanes = self.num_lanes
            lanes = center_lane.tolist()
            lons = center_lon.tolist()
            for row in range(count):
                center = lanes[row]
                value = lons[row]
                for column, (lane_no, inclusive_rear) in enumerate((
                        (center - 1, True), (center, False),
                        (center + 1, True))):
                    if lane_no < 1 or lane_no > num_lanes:
                        continue
                    start = starts[lane_no - 1]
                    stop = starts[lane_no]
                    if start == stop:
                        continue
                    segment = sorted_lon[start:stop]
                    ids = self._ids_with_sentinel(lane_no, start, stop)
                    first_greater = segment.searchsorted(value, side="right")
                    result[row, column] = ids[first_greater]
                    if inclusive_rear:
                        rear_pos = first_greater - 1
                    else:
                        rear_pos = segment.searchsorted(value, side="left") - 1
                    if rear_pos >= 0:
                        rear_pos = segment.searchsorted(segment[rear_pos],
                                                        side="left")
                    result[row, column + 3] = ids[rear_pos]
            return result
        result = np.empty((count, 6), dtype=np.int64)
        front, rear = self._lane_pass(center_lane - 1, center_lon,
                                      inclusive_rear=True)
        result[:, 0] = front
        result[:, 3] = rear
        front, rear = self._lane_pass(center_lane, center_lon,
                                      inclusive_rear=False)
        result[:, 1] = front
        result[:, 4] = rear
        front, rear = self._lane_pass(center_lane + 1, center_lon,
                                      inclusive_rear=True)
        result[:, 2] = front
        result[:, 5] = rear
        return result
