"""Requests whose graphs do not have one request's layout.

A client can send a graph with the wrong number of targets or a short
history; the engine must quarantine such a request the way it
quarantines a non-finite one, and serve its batchmates as if it were
not there.
"""

import numpy as np

from repro.perception.graph import SpatialTemporalGraph


def five_target_graph(graph: SpatialTemporalGraph) -> SpatialTemporalGraph:
    """``graph`` with its last target slot dropped: (z, 5, ...) arrays."""
    return SpatialTemporalGraph(graph.target_features[:, :5],
                                graph.contributor_features[:, :5],
                                graph.target_mask[:5],
                                graph.ego_features[:, :5])


def short_history_graph(graph: SpatialTemporalGraph) -> SpatialTemporalGraph:
    """``graph`` with its oldest history step dropped: z - 1 steps."""
    return SpatialTemporalGraph(graph.target_features[1:],
                                graph.contributor_features[1:],
                                graph.target_mask,
                                graph.ego_features[1:])


def unreadable_graph() -> SpatialTemporalGraph:
    """Flat arrays: not even the TTC rule can read a front row."""
    return SpatialTemporalGraph(np.zeros(4), np.zeros(4), np.zeros(6),
                                np.zeros(4))
