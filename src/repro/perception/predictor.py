"""Common interface for one-step state predictors.

LST-GAT and the compared methods (LSTM-MLP, ED-LSTM, GAS-LED) all map a
spatial-temporal graph to the predicted ``(n_targets, 3)`` relative
future states, train with the Eq. 14 masked MSE, and support both
batched (parallel) and per-target (sequential) inference.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .graph import SpatialTemporalGraph

__all__ = ["StatePredictor", "OUTPUT_DIM"]

#: Predicted quantities per target: [d_lat, d_lon, v_rel].
OUTPUT_DIM = 3


class StatePredictor(nn.Module):
    """Interface: predict ``(n_targets, 3)`` future relative states.

    All predictors regress the *residual* against a constant-velocity
    kinematic baseline (:meth:`kinematic_baseline`): the deterministic
    part of the one-step transition (Eq. 18 with zero acceleration) is
    computed in closed form, and the network only learns deviations --
    accelerations and lane changes, i.e. exactly the behaviour that
    depends on vehicle interactions.  This residual parameterization is
    applied identically to LST-GAT and every compared method.
    """

    def forward_graph(self, graph: SpatialTemporalGraph) -> nn.Tensor:
        """Raw network output (the residual), shape ``(n_targets, 3)``."""
        raise NotImplementedError

    @staticmethod
    def kinematic_baseline(graph: SpatialTemporalGraph) -> np.ndarray:
        """Constant-velocity extrapolation in the scaled label space.

        ``d_lat`` and ``v_rel`` persist; ``d_lon`` advances by the
        target's absolute speed ``v_rel + v_ego`` over one step.
        """
        from ..sim import constants
        from .graph import EGO_SCALE, OUTPUT_SCALE, RELATIVE_SCALE

        current = graph.target_features[-1, :, :3]
        v_rel = current[:, 2] * RELATIVE_SCALE[2]
        v_ego = graph.ego_features[-1, :, 2] * EGO_SCALE[2]
        baseline = current * RELATIVE_SCALE[:3]
        baseline[:, 1] += (v_rel + v_ego) * constants.DT
        return baseline / OUTPUT_SCALE

    def _prediction(self, graph: SpatialTemporalGraph) -> nn.Tensor:
        return self.forward_graph(graph) + nn.Tensor(self.kinematic_baseline(graph))

    def loss(self, graph: SpatialTemporalGraph, truth: np.ndarray) -> nn.Tensor:
        """Masked MSE (Eq. 14) shared by every predictor."""
        return nn.masked_mse_loss(self._prediction(graph), nn.Tensor(truth),
                                  graph.target_mask)

    def predict(self, graph: SpatialTemporalGraph) -> np.ndarray:
        """Batched inference over all targets at once (physical units)."""
        from .graph import OUTPUT_SCALE

        with nn.no_grad():
            return self._prediction(graph).numpy() * OUTPUT_SCALE

    def predict_many(self, graphs: list[SpatialTemporalGraph]) -> list[np.ndarray]:
        """One batched forward over many graphs (physical units).

        The graphs are collated along the target axis
        (:func:`~repro.perception.graph.concat_graphs`), pushed through
        :meth:`predict` as a single network pass, and the stacked
        ``(sum(n_i), 3)`` output is split back per graph.  This is the
        serving-path entry point: K concurrent requests cost one
        attention + LSTM forward instead of K.
        """
        from .graph import concat_graphs, split_rows

        if not graphs:
            return []
        stacked = self.predict(concat_graphs(graphs))
        return split_rows(stacked,
                          [graph.target_features.shape[1] for graph in graphs])

    def predict_normalized(self, graph: SpatialTemporalGraph) -> np.ndarray:
        """Batched inference in the scaled training space."""
        with nn.no_grad():
            return self._prediction(graph).numpy()

    def predict_each(self, graph: SpatialTemporalGraph) -> np.ndarray:
        """Sequential per-target inference (the pre-LST-GAT style), physical units."""
        from .graph import OUTPUT_SCALE

        rows = []
        with nn.no_grad():
            for index in range(graph.target_features.shape[1]):
                single = SpatialTemporalGraph(
                    graph.target_features[:, index:index + 1],
                    graph.contributor_features[:, index:index + 1],
                    graph.target_mask[index:index + 1],
                    graph.ego_features[:, index:index + 1],
                )
                rows.append(self._prediction(single).numpy()[0])
        return np.stack(rows) * OUTPUT_SCALE

    @staticmethod
    def _target_with_ego_sequences(graph: SpatialTemporalGraph) -> nn.Tensor:
        """Per-target history with the ego reference appended: ``(n, z, 8)``.

        Every predictor receives the ego's own states -- the task
        conditions on them and the labels are ego-relative.
        """
        stacked = np.concatenate([graph.target_features, graph.ego_features], axis=-1)
        return nn.Tensor(stacked.transpose(1, 0, 2))
