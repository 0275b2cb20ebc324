"""The enhanced perception module: online facade used by the HEAD agent.

Per decision step it (1) reads the sensor, (2) updates observation
tracks, (3) runs phantom construction and builds the spatial-temporal
graph, and (4) predicts the one-step future states of the six targets
with LST-GAT.  The decision module consumes the returned
:class:`PerceptionFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import constants
from ..sim.engine import SimulationEngine
from ..sim.road import Road
from ..sim.vehicle import VehicleState
from .graph import SpatialTemporalGraph, build_graph
from .phantom import PerceivedScene, TrackKind, build_scene, phantom_mask
from .predictor import StatePredictor
from .sensor import Sensor, WorldArrays
from .tracking import ObservationBuffer

__all__ = ["PerceptionFrame", "EnhancedPerception"]


@dataclass
class PerceptionFrame:
    """Everything perception hands to the decision module at one step.

    Attributes
    ----------
    scene:
        The 1+6+36 perceived layout (observed vehicles + phantoms).
    graph:
        Dense G(t) arrays (input to the predictor).
    prediction:
        ``(6, 3)`` one-step future relative states of the targets, or
        zeros when prediction is disabled (HEAD-w/o-LST-GAT).
    """

    scene: PerceivedScene
    graph: SpatialTemporalGraph
    prediction: np.ndarray


class EnhancedPerception:
    """Sensor + tracker + phantom construction + LST-GAT, glued together.

    Parameters
    ----------
    predictor:
        Any :class:`StatePredictor`; pass None to disable prediction
        (the HEAD-w/o-LST-GAT ablation, which then feeds zeros as the
        "future" half of the augmented state).
    use_phantoms:
        Setting False replaces every phantom with zero states (the
        HEAD-w/o-PVC ablation).
    """

    def __init__(self, predictor: StatePredictor | None,
                 sensor: Sensor | None = None,
                 history_steps: int = constants.HISTORY_STEPS,
                 use_phantoms: bool = True) -> None:
        self.predictor = predictor
        self.sensor = sensor or Sensor()
        self.history_steps = history_steps
        self.use_phantoms = use_phantoms
        self.buffer = ObservationBuffer(history_steps=history_steps)

    def reset(self) -> None:
        """Clear all episode state (call at episode start)."""
        self.buffer.reset()

    def perceive(self, engine: SimulationEngine, ego_id: str) -> PerceptionFrame:
        """Run one full perception cycle for one ego against the simulator."""
        scene = self.observe_scene(ego_id, engine.get(ego_id).state,
                                   WorldArrays.from_engine(engine), engine.road)
        graph = build_graph(scene, engine.road)
        if self.predictor is not None:
            prediction = self.predictor.predict(graph)
        else:
            prediction = np.zeros((6, 3))
        return PerceptionFrame(scene=scene, graph=graph, prediction=prediction)

    def observe_scene(self, ego_id: str, ego_state: VehicleState,
                      world: dict[str, VehicleState] | WorldArrays,
                      road: Road) -> PerceivedScene:
        """Sensor read, track update and phantom construction only.

        Fleet perception gathers all M AVs' scenes with this, assembles
        every graph in one stacked
        :func:`~repro.perception.graph.build_graphs` call and runs one
        :meth:`~repro.perception.predictor.StatePredictor.predict_many`
        forward -- bit-identical per ego to :meth:`perceive`.  A fleet
        passes one :class:`~repro.perception.sensor.WorldArrays` of the
        snapshot as ``world`` to every AV.
        """
        observed = self.sensor.observe(ego_id, ego_state, world, road)
        self.buffer.update({**observed, ego_id: ego_state})
        scene = build_scene(ego_id, self.buffer, road,
                            detection_range=self.sensor.detection_range)
        if not self.use_phantoms:
            # HEAD-w/o-PVC: unobservable slots become zero nodes, not phantoms.
            phantoms = phantom_mask(scene.kinds)
            scene.nodes[phantoms] = 0.0
            scene.kinds[phantoms] = TrackKind.ZERO
        return scene
