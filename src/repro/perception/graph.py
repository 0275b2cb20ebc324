"""Spatial-temporal graph construction (paper Eqs. 7-9).

Converts :class:`~repro.perception.phantom.PerceivedScene` node
windows into the dense arrays LST-GAT consumes, and (for inspection and
testing) into an explicit ``networkx`` graph with the paper's 42-node
layout: 6 targets plus 6 surroundings each, with directed edges from
every surrounding to its target and self-loops on targets.

Feature vectors follow Eqs. 7-8: conventional vehicles carry states
relative to the autonomous vehicle ``[d_lat, d_lon, v_rel, IF]``, the
autonomous vehicle keeps its raw state as the reference, and
zero-padded slots are all-zero.  :func:`build_graphs` is the one
featurizer; :func:`to_networkx` reads its node features from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..sim.road import Road
from .neighbors import AREA_COUNT
from .phantom import (CONTRIBUTORS, NODE_COUNT, PerceivedScene, TrackKind,
                      node_row, phantom_mask)

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["SpatialTemporalGraph", "build_graph", "build_graphs",
           "concat_graphs", "split_rows", "FEATURE_DIM", "CONTRIBUTORS",
           "OUTPUT_SCALE", "RELATIVE_SCALE", "EGO_SCALE"]

#: Node feature dimensionality (Eq. 7): d_lat, d_lon, v_rel, IF.
FEATURE_DIM = 4

#: Feature scaling applied on top of Eqs. 7-8 so all network inputs are
#: O(1).  Relative nodes: lateral offsets span a few lane widths
#: (scale 10 m), longitudinal offsets span up to ~2R (scale 100 m),
#: relative speeds span the speed-limit band (scale 10 m/s).  The IF
#: flag is already 0/1.
RELATIVE_SCALE = np.array([10.0, 100.0, 10.0, 1.0])

#: Ego reference nodes keep raw state (paper Eq. 8 first row); scaled by
#: lane count, a kilometer, and the speed limit.
EGO_SCALE = np.array([6.0, 1000.0, 25.0, 1.0])

#: Scaling of the predicted / ground-truth [d_lat, d_lon, v_rel].
OUTPUT_SCALE = RELATIVE_SCALE[:3]


@dataclass
class SpatialTemporalGraph:
    """Dense tensor view of the paper's spatial-temporal graph G(t).

    Attributes
    ----------
    target_features:
        ``(z, 6, 4)`` Eq. 7 vectors of the targets C_1..C_6.
    contributor_features:
        ``(z, 6, 7, 4)``; slot 0 is the target itself (self-loop), slots
        1..6 are C_{i.1}..C_{i.6} (Eq. 8).
    target_mask:
        ``(6,)`` -- 1 where the target is a real observed vehicle, 0
        where it is a phantom (used by the Eq. 14 loss mask).
    ego_features:
        ``(z, 6, 4)`` raw (scaled) ego reference states, replicated per
        target so batched graphs collate uniformly.  The prediction task
        conditions on the autonomous vehicle's own history (Sec. III-B
        problem statement), and the Eq. 13 outputs are relative to the
        ego so its absolute motion is required context.
    """

    target_features: np.ndarray
    contributor_features: np.ndarray
    target_mask: np.ndarray
    ego_features: np.ndarray

    @property
    def history_steps(self) -> int:
        return self.target_features.shape[0]


def build_graph(scene: PerceivedScene, road: Road) -> SpatialTemporalGraph:
    """Assemble G(t) feature arrays from a perceived scene.

    Delegates to :func:`build_graphs` with a single scene, so the
    single-AV and fleet paths share one featurization kernel and are
    bit-identical by construction.
    """
    return build_graphs([scene], road)[0]


def build_graphs(scenes: list[PerceivedScene], road: Road
                 ) -> list[SpatialTemporalGraph]:
    """Assemble G(t) arrays for many scenes in one stacked computation.

    All S * 42 node windows are stacked into one state block and
    featurized by a handful of vectorized operations shared across the
    whole fleet, so each scene's arrays are independent of which other
    scenes share the batch.

    All scenes must have the same history length ``z``.
    """
    if not scenes:
        return []
    steps = scenes[0].ego.shape[0]
    if any(scene.ego.shape[0] != steps for scene in scenes):
        raise ValueError("scenes disagree on history length")
    raw = np.concatenate([scene.nodes for scene in scenes])
    # Per-scene ego references, replicated to the scene's 42 node rows.
    ego_raw = np.stack([scene.ego for scene in scenes])
    node_ego = np.repeat(ego_raw, NODE_COUNT, axis=0)
    kinds = np.concatenate([scene.kinds for scene in scenes])
    is_zero = kinds == TrackKind.ZERO
    is_ego = kinds == TrackKind.EGO

    # Eq. 7 relative features, node-major: (S * 42, z, 4).  The IF
    # column is Eqs. 7-8's binary code: 1 for phantoms, else 0.
    features = np.empty((len(kinds), steps, FEATURE_DIM))
    features[:, :, 0] = (raw[:, :, 0] - node_ego[:, :, 0]) * road.lane_width
    features[:, :, 1] = raw[:, :, 1] - node_ego[:, :, 1]
    features[:, :, 2] = raw[:, :, 2] - node_ego[:, :, 2]
    features[:, :, 3] = phantom_mask(kinds)[:, None]
    features /= RELATIVE_SCALE
    if is_ego.any():
        ego_like = np.zeros((int(is_ego.sum()), steps, FEATURE_DIM))
        ego_like[:, :, :3] = raw[is_ego]
        features[is_ego] = ego_like / EGO_SCALE
    features[is_zero] = 0.0

    # Scatter into the (z, 6, ...) layout: within a scene, node i*7 is
    # target C_{i+1}, nodes i*7+1..i*7+6 are its contributors.
    grouped = features.reshape(len(scenes), AREA_COUNT, CONTRIBUTORS,
                               steps, FEATURE_DIM)
    contributors = np.ascontiguousarray(grouped.transpose(0, 3, 1, 2, 4))
    targets = np.ascontiguousarray(contributors[:, :, :, 0, :])

    ego_vectors = np.zeros((len(scenes), steps, FEATURE_DIM))
    ego_vectors[:, :, :3] = ego_raw
    ego_vectors /= EGO_SCALE
    egos = np.ascontiguousarray(
        np.broadcast_to(ego_vectors[:, :, None, :],
                        (len(scenes), steps, AREA_COUNT, FEATURE_DIM)))
    return [SpatialTemporalGraph(targets[index], contributors[index],
                                 np.array(scene.target_mask()), egos[index])
            for index, scene in enumerate(scenes)]


def concat_graphs(graphs: list[SpatialTemporalGraph]) -> SpatialTemporalGraph:
    """Stack many graphs along the target axis into one batched graph.

    Every array of :class:`SpatialTemporalGraph` is indexed
    ``(z, n, ...)`` with targets independent along ``n`` -- the GAT
    attention normalizes per target and the LSTM runs one sequence per
    target -- so K graphs of n targets each collate into a single
    ``(z, K*n, ...)`` graph whose forward costs one network pass instead
    of K.  This is the batched perception entry point the inference
    server feeds; :func:`split_rows` undoes the stacking on the
    ``(K*n, 3)`` prediction.

    All graphs must share the history length ``z``.
    """
    if not graphs:
        raise ValueError("concat_graphs needs at least one graph")
    steps = {graph.history_steps for graph in graphs}
    if len(steps) != 1:
        raise ValueError(f"graphs disagree on history length: {sorted(steps)}")
    if len(graphs) == 1:
        return graphs[0]
    return SpatialTemporalGraph(
        np.concatenate([graph.target_features for graph in graphs], axis=1),
        np.concatenate([graph.contributor_features for graph in graphs], axis=1),
        np.concatenate([graph.target_mask for graph in graphs]),
        np.concatenate([graph.ego_features for graph in graphs], axis=1),
    )


def split_rows(stacked: np.ndarray, counts: list[int]) -> list[np.ndarray]:
    """Split a ``(sum(counts), ...)`` array back into per-graph blocks."""
    if stacked.shape[0] != sum(counts):
        raise ValueError(f"cannot split {stacked.shape[0]} rows into {counts}")
    out = []
    offset = 0
    for count in counts:
        out.append(stacked[offset:offset + count])
        offset += count
    return out


def to_networkx(scene: PerceivedScene, road: Road,
                step: int = -1) -> nx.DiGraph:
    """Export one spatial graph g(tau) as a directed networkx graph.

    Nodes are labeled ``"C1"``..``"C6"`` and ``"C1.1"``..``"C6.6"`` with
    ``feature`` (the node's :func:`build_graph` row) and ``kind``
    attributes; edges run surrounding -> target plus target self-loops,
    exactly the paper's construction steps 1-3.  ``networkx`` is an
    optional dependency (the ``test``/``dev`` extras), so it is imported
    here rather than with the package.
    """
    import networkx as nx

    graph = nx.DiGraph()
    features = build_graph(scene, road).contributor_features
    features = features[step % features.shape[0]]
    for area in range(1, AREA_COUNT + 1):
        for slot in range(CONTRIBUTORS):
            name = f"C{area}.{slot}" if slot else f"C{area}"
            kind = TrackKind(int(scene.kinds[node_row(area, slot)]))
            graph.add_node(name, feature=features[area - 1, slot], kind=kind.label)
            if slot:
                graph.add_edge(name, f"C{area}")
        graph.add_edge(f"C{area}", f"C{area}")
    return graph
