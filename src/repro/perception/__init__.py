"""Enhanced perception module: sensor, phantom construction, LST-GAT."""

from .sensor import Sensor
from .neighbors import AREA_COUNT, MIRROR_AREA
from .tracking import ObservationBuffer
from .phantom import TrackKind, SceneNode, PerceivedScene, build_scene
from .graph import (SpatialTemporalGraph, build_graph, to_networkx,
                    FEATURE_DIM, CONTRIBUTORS)
from .predictor import StatePredictor, OUTPUT_DIM
from .lstgat import LSTGAT
from .baselines import LSTMMLP, EDLSTM, GASLED
from .dataset import PredictionSample, build_samples, collate, train_test_samples
from .training import (TrainingResult, train_predictor, evaluate_predictor,
                       AccuracyReport)
from .multistep import rollout, HorizonErrors, horizon_errors
from .module import PerceptionFrame, EnhancedPerception

__all__ = [
    "Sensor",
    "AREA_COUNT", "MIRROR_AREA",
    "ObservationBuffer",
    "TrackKind", "SceneNode", "PerceivedScene", "build_scene",
    "SpatialTemporalGraph", "build_graph", "to_networkx", "FEATURE_DIM", "CONTRIBUTORS",
    "StatePredictor", "OUTPUT_DIM", "LSTGAT", "LSTMMLP", "EDLSTM", "GASLED",
    "PredictionSample", "build_samples", "collate", "train_test_samples",
    "TrainingResult", "train_predictor", "evaluate_predictor", "AccuracyReport",
    "rollout", "HorizonErrors", "horizon_errors",
    "PerceptionFrame", "EnhancedPerception",
]
