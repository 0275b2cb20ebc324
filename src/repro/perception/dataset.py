"""Sample generation for the state-prediction task.

Turns recorded trajectories (the REAL substitute or live simulation)
into supervised samples: a spatial-temporal graph input plus the
ground-truth one-step relative future state of each target and a
validity mask.

For every chosen ego vehicle the builder replays the scene through the
sensor model step by step -- so the *inputs* contain exactly the
occlusion/range gaps and phantom constructions the predictor will face
online, while the *labels* come from the omniscient recording.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.trajectories import TrajectorySet
from ..sim import constants
from ..sim.road import Road
from ..sim.vehicle import VehicleState
from .graph import SpatialTemporalGraph, build_graph, concat_graphs
from .neighbors import AREA_COUNT
from .phantom import CONTRIBUTORS, build_scene
from .sensor import Sensor
from .tracking import ObservationBuffer
from ..seeding import resolve_rng

__all__ = ["PredictionSample", "build_samples", "collate", "train_test_samples"]


@dataclass
class PredictionSample:
    """One supervised example for the state predictor.

    Attributes
    ----------
    graph:
        Input G(t); its ``target_mask`` already combines "target is
        observed" with "ground truth exists at t+1".
    truth:
        ``(6, 3)`` ground-truth ``[d_lat, d_lon, v_rel]`` of each target
        at t+1, relative to the ego at t (zeros where masked).
    ego_id / step / target_ids:
        Provenance: which recorded vehicle served as ego, at which
        snapshot index, and which vehicle fills each target slot (None
        for phantoms).  Used by multi-horizon evaluations.
    """

    graph: SpatialTemporalGraph
    truth: np.ndarray
    ego_id: str | None = None
    step: int | None = None
    target_ids: tuple[str | None, ...] | None = None


def _relative_future(target: VehicleState, ego_now: VehicleState, road: Road) -> np.ndarray:
    """Ground-truth label in the same scaled space as the graph features."""
    from .graph import OUTPUT_SCALE

    return np.array([
        road.lateral_offset(target.lat, ego_now.lat),
        target.lon - ego_now.lon,
        target.v - ego_now.v,
    ]) / OUTPUT_SCALE


def build_samples(trajectories: TrajectorySet, ego_ids: list[str] | None = None,
                  sensor: Sensor | None = None,
                  history_steps: int = constants.HISTORY_STEPS,
                  max_egos: int = 8,
                  rng: np.random.Generator | None = None) -> list[PredictionSample]:
    """Replay ``trajectories`` through the sensor and emit samples.

    Parameters
    ----------
    trajectories:
        The recorded scene (omniscient ground truth).
    ego_ids:
        Vehicles to use as perception reference points; defaults to a
        seeded random draw of ``max_egos`` long-lived vehicles.
    sensor:
        Sensor model (range + occlusion); defaults to the paper's R=100m.
    """
    sensor = sensor or Sensor()
    rng = resolve_rng(rng)
    road = trajectories.road
    if ego_ids is None:
        ego_ids = _pick_long_lived(trajectories, max_egos, history_steps, rng)

    samples: list[PredictionSample] = []
    for ego_id in ego_ids:
        buffer = ObservationBuffer(history_steps=history_steps)
        first, last = trajectories.presence_span(ego_id)
        for step in range(first, min(last, len(trajectories) - 1)):
            snapshot = trajectories.snapshots[step]
            if ego_id not in snapshot:
                break
            ego_state = snapshot[ego_id]
            observed = sensor.observe(ego_id, ego_state, snapshot, road)
            buffer.update({**observed, ego_id: ego_state})
            scene = build_scene(ego_id, buffer, road,
                                detection_range=sensor.detection_range)
            graph = build_graph(scene, road)
            future_snapshot = trajectories.snapshots[step + 1]
            truth = np.zeros((AREA_COUNT, 3))
            mask = graph.target_mask.copy()
            target_ids = tuple(scene.vids[::CONTRIBUTORS])
            for index, vid in enumerate(target_ids):
                if vid is not None and vid in future_snapshot:
                    truth[index] = _relative_future(
                        future_snapshot[vid], ego_state, road)
                else:
                    mask[index] = 0.0
            graph = SpatialTemporalGraph(graph.target_features,
                                         graph.contributor_features, mask,
                                         graph.ego_features)
            samples.append(PredictionSample(graph=graph, truth=truth,
                                            ego_id=ego_id, step=step,
                                            target_ids=target_ids))
    return samples


def _pick_long_lived(trajectories: TrajectorySet, count: int,
                     history_steps: int, rng: np.random.Generator) -> list[str]:
    spans = []
    for vid in trajectories.vehicle_ids():
        first, last = trajectories.presence_span(vid)
        if last - first >= 2 * history_steps:
            spans.append((last - first, vid))
    spans.sort(reverse=True)
    pool = [vid for _, vid in spans[:4 * count]]
    if not pool:
        raise ValueError("no vehicle lives long enough to serve as an ego")
    chosen = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[index] for index in chosen]


def collate(samples: list[PredictionSample]) -> tuple[SpatialTemporalGraph, np.ndarray]:
    """Merge samples into one batched graph along the target axis.

    The attention and the LSTM treat targets as a batch dimension, so B
    graphs of 6 targets collate into one graph of 6B targets -- a single
    forward pass trains the whole mini-batch.
    """
    graph = concat_graphs([sample.graph for sample in samples])
    truth = np.concatenate([sample.truth for sample in samples], axis=0)
    return graph, truth


def train_test_samples(trajectories: TrajectorySet, ratio: float = 0.8,
                       **kwargs) -> tuple[list[PredictionSample], list[PredictionSample]]:
    """Chronologically split the scene 4:1 and build samples for each part."""
    train_set, test_set = trajectories.split(ratio)
    return build_samples(train_set, **kwargs), build_samples(test_set, **kwargs)
