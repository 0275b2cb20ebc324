"""Observation tracking: the history window of every vehicle perception knows.

The predictor needs the last ``z`` states of the ego and of every
currently visible vehicle.  :class:`ObservationBuffer` keeps them as one
``(N, z, 3)`` block of ``(lane, lon, v)`` rows, one row per live track,
with an id list and a last-seen step per row.  Vehicles enter and leave
the field of view, so a new track's row is its first observation
repeated ``z`` times (a sensor that just acquired a track knows nothing
older), each later observation shifts the row left by one step and
writes itself last, and tracks unobserved for longer than ``max_gap``
steps are dropped by compacting the block.  Lanes are small integers,
exact in float64.

This ``(z, 3)`` window is perception's one format of history: the
perception module feeds the ego's own state into the same buffer as the
sensed tracks, phantom construction (:mod:`~repro.perception.phantom`)
writes its nodes in it and graph construction
(:mod:`~repro.perception.graph`) featurizes it.
"""

from __future__ import annotations

import numpy as np

from ..sim import constants
from ..sim.vehicle import VehicleState

__all__ = ["ObservationBuffer"]


class ObservationBuffer:
    """Rolling per-vehicle observation store.

    Parameters
    ----------
    history_steps:
        Window length z (paper: 5).
    max_gap:
        How many consecutive unobserved steps a track survives before
        being dropped.
    """

    def __init__(self, history_steps: int = constants.HISTORY_STEPS, max_gap: int = 2) -> None:
        if history_steps < 1:
            raise ValueError("history window must contain at least one step")
        self.history_steps = history_steps
        self.max_gap = max_gap
        self.reset()

    def update(self, observed: dict[str, VehicleState]) -> None:
        """Ingest one frame of ``{vid: state}``; advances the internal step counter."""
        self._step += 1
        if observed:
            names = list(observed)
            states = np.array([value for state in observed.values()
                               for value in (state.lat, state.lon, state.v)],
                              dtype=np.float64).reshape(-1, 3)
            fresh = [position for position, vid in enumerate(names)
                     if vid not in self._row_of]
            if fresh:
                # A new track starts as its first state repeated z times,
                # so the shift below leaves it unchanged.
                for position in fresh:
                    self._row_of[names[position]] = len(self.ids)
                    self.ids.append(names[position])
                    self.last_seen.append(self._step)
                self.rows = np.concatenate((self.rows, np.repeat(
                    states[fresh, None, :], self.history_steps, axis=1)))
            rows = [self._row_of[vid] for vid in names]
            self.rows[rows] = np.concatenate(
                (self.rows.take(rows, axis=0)[:, 1:], states[:, None]), axis=1)
            for row in rows:
                self.last_seen[row] = self._step
        oldest = self._step - self.max_gap
        if self.last_seen and min(self.last_seen) < oldest:
            keep = [row for row, seen in enumerate(self.last_seen) if seen >= oldest]
            self.rows = self.rows.take(keep, axis=0)
            self.ids = [self.ids[row] for row in keep]
            self.last_seen = [self.last_seen[row] for row in keep]
            self._row_of = {vid: row for row, vid in enumerate(self.ids)}

    def windows(self, ids: list[str]) -> np.ndarray:
        """``(n, z, 3)`` copy of the windows of ``ids`` (oldest step first)."""
        return self.rows.take([self._row_of[vid] for vid in ids], axis=0)

    def current_ids(self) -> list[str]:
        """Ids observed in the most recent frame, sorted.

        Stale tracks (kept briefly for re-acquisition) are excluded:
        their last state is up to ``max_gap`` steps old, so they must
        not be treated as current observations.
        """
        return sorted(vid for vid, seen in zip(self.ids, self.last_seen)
                      if seen == self._step)

    def tracked_ids(self) -> list[str]:
        """Ids with a live track, sorted."""
        return sorted(self.ids)

    def __contains__(self, vid: str) -> bool:
        return vid in self._row_of

    def reset(self) -> None:
        """Drop all tracks (start of a new episode)."""
        self.rows = np.empty((0, self.history_steps, 3))
        self.ids: list[str] = []
        self.last_seen: list[int] = []
        self._row_of: dict[str, int] = {}
        self._step = -1
