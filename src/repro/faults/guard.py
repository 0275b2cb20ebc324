"""Runtime guard around state predictors: never emit NaN, inf, or nonsense.

LST-GAT (or any compared predictor) can diverge -- exploding weights,
a corrupted checkpoint, or degenerate inputs under heavy sensor faults
can produce NaN/inf or physically impossible predictions.  Down-stream,
one bad row silently poisons the augmented state, the replay buffer and
eventually the Q-networks.  :class:`PerceptionGuard` wraps the
predictor and enforces, per target, the paper's own fallback ordering:

1. the network prediction, when finite and inside the physical envelope;
2. the constant-velocity kinematic baseline (what the paper's phantom
   construction assumes for unobserved vehicles);
3. zeros (the phantom-style padding state) if even the baseline is
   corrupt, which can only happen when the graph itself carries
   non-finite features.

The guard is bit-transparent for healthy predictions: rows that pass
validation are returned exactly as the predictor produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perception.graph import (OUTPUT_SCALE, SpatialTemporalGraph,
                                concat_graphs, split_rows)
from ..perception.predictor import StatePredictor
from ..sim import constants

__all__ = ["DEFAULT_ENVELOPE", "GuardStats", "PerceptionGuard",
           "constant_velocity_fallback"]

#: Physical envelope on a predicted ``[d_lat, d_lon, v_rel]`` row, in
#: meters / meters / m-per-s: generous multiples of the road geometry and
#: sensor range, so a healthy (even untrained) network never trips it.
DEFAULT_ENVELOPE = ((constants.NUM_LANES + 2) * constants.LANE_WIDTH,
                    2.0 * constants.SENSOR_RANGE,
                    2.0 * constants.V_MAX)


def constant_velocity_fallback(graph: SpatialTemporalGraph,
                               envelope: np.ndarray) -> np.ndarray:
    """Constant-velocity baseline clipped to ``envelope``, zeros where the graph is bad."""
    with np.errstate(all="ignore"):
        baseline = StatePredictor.kinematic_baseline(graph) * OUTPUT_SCALE
    baseline = np.where(np.isfinite(baseline), baseline, 0.0)
    return np.clip(baseline, -envelope, envelope)


@dataclass
class GuardStats:
    """Degradation bookkeeping accumulated across :meth:`predict` calls."""

    frames: int = 0
    degraded_frames: int = 0
    degraded_targets: int = 0

    def degraded_fraction(self) -> float:
        return self.degraded_frames / max(self.frames, 1)

    def as_dict(self) -> dict[str, int]:
        return {"frames": self.frames, "degraded_frames": self.degraded_frames,
                "degraded_targets": self.degraded_targets}


class PerceptionGuard:
    """Fallback wrapper implementing the ``StatePredictor.predict`` duck type.

    Parameters
    ----------
    predictor:
        The wrapped predictor (anything with ``predict(graph)``).
    d_lat_max / d_lon_max / v_rel_max:
        Physical envelope on the predicted relative state, in meters /
        meters / m-per-s; defaults to :data:`DEFAULT_ENVELOPE`.
    """

    def __init__(self, predictor,
                 d_lat_max: float = DEFAULT_ENVELOPE[0],
                 d_lon_max: float = DEFAULT_ENVELOPE[1],
                 v_rel_max: float = DEFAULT_ENVELOPE[2]) -> None:
        if predictor is None:
            raise ValueError("PerceptionGuard needs a predictor to wrap")
        self.predictor = predictor
        self.envelope = np.array([d_lat_max, d_lon_max, v_rel_max])
        self.stats = GuardStats()
        self.last_degraded = 0
        self.last_confidence = 1.0

    # ------------------------------------------------------------------
    # StatePredictor duck type
    # ------------------------------------------------------------------
    def predict(self, graph: SpatialTemporalGraph) -> np.ndarray:
        """Validated one-step prediction in physical units, always finite."""
        prediction, _ = self.predict_stacked(
            graph, [graph.target_features.shape[1]])
        return prediction

    def predict_many(self, graphs: list[SpatialTemporalGraph]) -> list[np.ndarray]:
        """Validated batched prediction: one stacked forward, per-graph guard.

        Each graph counts as one frame in :attr:`stats`, and each row is
        validated against the same envelope as :meth:`predict`;
        ``last_*`` attributes reflect the final graph.
        """
        if not graphs:
            return []
        counts = [graph.target_features.shape[1] for graph in graphs]
        prediction, _ = self.predict_stacked(concat_graphs(graphs), counts)
        return split_rows(prediction, counts)

    def predict_stacked(self, stacked: SpatialTemporalGraph,
                        counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The guard's batch entry: ``(prediction, bad_rows)`` for a stack.

        ``stacked`` holds graphs of ``counts`` targets each, concatenated
        along the target axis.  One predictor forward, one validation
        pass and (only if a row failed) one CV fallback over the stack;
        every step is row-wise, so each graph's rows are bitwise what
        :meth:`predict` on that graph alone returns.  ``bad_rows`` marks
        the rows the fallback replaced.  Each graph is one frame.
        """
        try:
            raw = np.asarray(self.predictor.predict(stacked), dtype=np.float64)
        except FloatingPointError:
            raw = np.full((stacked.target_features.shape[1], 3), np.nan)
        bad = self._invalid_rows(raw)
        self.stats.frames += len(counts)
        self.last_degraded = 0
        self.last_confidence = 1.0
        if not bad.any():
            return raw, bad
        # Bad rows per graph: differences of the running bad count taken
        # at the graph boundaries (safe for graphs of zero targets).
        running = np.concatenate(([0], np.cumsum(bad)))
        per_graph = np.diff(running[np.concatenate(([0], np.cumsum(counts)))])
        self.stats.degraded_frames += int(np.count_nonzero(per_graph))
        self.stats.degraded_targets += int(per_graph.sum())
        self.last_degraded = int(per_graph[-1])
        self.last_confidence = 1.0 - self.last_degraded / max(counts[-1], 1)
        fallback = constant_velocity_fallback(stacked, self.envelope)
        result = raw.copy()
        result[bad] = fallback[bad]
        return result, bad

    def reset_stats(self) -> None:
        self.stats = GuardStats()
        self.last_degraded = 0
        self.last_confidence = 1.0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _invalid_rows(self, prediction: np.ndarray) -> np.ndarray:
        """Boolean mask of rows that are non-finite or out of envelope."""
        if prediction.ndim != 2 or prediction.shape[1] != 3:
            raise ValueError(f"prediction must be (n, 3), got {prediction.shape}")
        finite = np.isfinite(prediction).all(axis=1)
        inside = np.zeros(len(prediction), dtype=bool)
        inside[finite] = (np.abs(prediction[finite]) <= self.envelope).all(axis=1)
        return ~inside
