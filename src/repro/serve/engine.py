"""Batched HEAD inference: one array block per micro-batch, per ladder rung.

The engine is the synchronous compute core under the async server: it
takes a list of perception graphs (one per request) and produces one
action per graph.  The micro-batch is stacked once and stays one block
to its actions:
:meth:`~repro.faults.guard.PerceptionGuard.predict_stacked`, then
:func:`~repro.decision.pamdp.augmented_states_from_graph`, then
:meth:`~repro.decision.agents.PDQNAgent.act_batch`.

Ladder semantics (:class:`~repro.serve.types.ServiceLevel`):

* ``FULL_HEAD`` -- stacked LST-GAT forward through the engine's
  :class:`~repro.faults.guard.PerceptionGuard` (so NaN or out-of-envelope
  rows degrade per request instead of poisoning the batch, and each
  request's graph is one guard frame), then one ``act_batch`` forward.
* ``CV_PERCEPTION`` -- the guard module's constant-velocity fallback
  used for *every* row (no perception network), then ``act_batch``.
* ``SAFETY_FALLBACK`` -- no networks at all: the degraded-perception TTC
  gate of :mod:`repro.decision.safety`, evaluated directly on each
  graph's front-target row.

Bad inputs are quarantined per request: a graph without one request's
layout is left out of the stack, and a non-finite one is left out by
row.  Either is answered with a safety-fallback action and a degraded
verdict, and its batchmates get bitwise the answers they would get
without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..decision.agents import PDQNAgent
from ..decision.pamdp import (LaneBehavior, ParameterizedAction,
                              augmented_states_from_graph)
from ..decision.safety import TTC_DEGRADED, front_ttc_from_graph
from ..faults.guard import (DEFAULT_ENVELOPE, PerceptionGuard,
                            constant_velocity_fallback)
from ..perception.graph import (CONTRIBUTORS, FEATURE_DIM,
                                SpatialTemporalGraph, concat_graphs)
from ..perception.neighbors import AREA_COUNT
from ..sim import constants
from .types import ServiceLevel, Verdict

__all__ = ["ItemResult", "BatchInferenceEngine", "safety_action_from_graph"]


def safety_action_from_graph(graph: SpatialTemporalGraph) -> ParameterizedAction:
    """The bottom-rung answer: keep the lane, brake when TTC demands it.

    Uses the *degraded* threshold :data:`~repro.decision.safety.TTC_DEGRADED`
    -- at this rung perception is by definition untrusted, so braking
    starts early.  A graph too corrupt to yield a TTC (non-finite, or
    not readable as a graph at all) brakes unconditionally: unknown is
    treated as imminent.
    """
    try:
        finite = bool(np.isfinite(graph.target_features).all())
        ttc = front_ttc_from_graph(graph)
    except (AttributeError, IndexError, TypeError, ValueError):
        finite, ttc = False, None
    if not finite or (ttc is not None and ttc < TTC_DEGRADED):
        return ParameterizedAction(LaneBehavior.KEEP, -constants.A_MAX)
    return ParameterizedAction(LaneBehavior.KEEP, 0.0)


@dataclass
class ItemResult:
    """Engine outcome for one request of a micro-batch."""

    action: ParameterizedAction
    verdict: Verdict
    level: ServiceLevel
    degraded_rows: int = 0


def _has_layout(graph, steps: int) -> bool:
    """Whether ``graph``'s arrays have one request's layout at ``steps``."""
    try:
        return (graph.target_features.shape == (steps, AREA_COUNT, FEATURE_DIM)
                and graph.contributor_features.shape
                == (steps, AREA_COUNT, CONTRIBUTORS, FEATURE_DIM)
                and graph.target_mask.shape == (AREA_COUNT,)
                and graph.ego_features.shape == (steps, AREA_COUNT, FEATURE_DIM))
    except AttributeError:
        return False


def _finite_graphs(stacked: SpatialTemporalGraph) -> np.ndarray:
    """Per-graph finiteness of a stack of six-target graphs, ``(K,)``."""
    rows = (np.isfinite(stacked.target_features).all(axis=(0, 2))
            & np.isfinite(stacked.contributor_features).all(axis=(0, 2, 3))
            & np.isfinite(stacked.ego_features).all(axis=(0, 2))
            & np.isfinite(stacked.target_mask))
    return rows.reshape(-1, AREA_COUNT).all(axis=1)


def _take_rows(stacked: SpatialTemporalGraph,
               keep: np.ndarray) -> SpatialTemporalGraph:
    """The kept target rows of a stack: bitwise the stack of those graphs."""
    return SpatialTemporalGraph(stacked.target_features[:, keep],
                                stacked.contributor_features[:, keep],
                                stacked.target_mask[keep],
                                stacked.ego_features[:, keep])


class BatchInferenceEngine:
    """Compute core mapping graphs -> actions.

    Parameters
    ----------
    agent:
        The decision policy (greedy ``act_batch`` path).
    predictor:
        Perception network, a
        :class:`~repro.faults.guard.PerceptionGuard` wrapping one, or
        ``None`` (every FULL_HEAD batch then serves at CV level).  A raw
        network is wrapped in a guard with the default envelope.
    history_steps:
        The history length z of the graphs the model is served; a
        request whose graph has another layout is quarantined.
    """

    def __init__(self, agent: PDQNAgent, predictor=None,
                 history_steps: int = constants.HISTORY_STEPS) -> None:
        self.agent = agent
        if predictor is None or isinstance(predictor, PerceptionGuard):
            self.guard = predictor
        else:
            self.guard = PerceptionGuard(predictor)
        self.envelope = (self.guard.envelope if self.guard is not None
                         else np.array(DEFAULT_ENVELOPE))
        self.history_steps = history_steps

    @classmethod
    def from_head(cls, head) -> "BatchInferenceEngine":
        """Build from a :class:`repro.core.head.HEAD` instance."""
        return cls(head.agent, head.guard, head.config.history_steps)

    # ------------------------------------------------------------------
    # the one entry point
    # ------------------------------------------------------------------
    def infer(self, graphs: list[SpatialTemporalGraph],
              level: ServiceLevel) -> list[ItemResult]:
        """Answer every graph at the given ladder rung.

        Always returns exactly ``len(graphs)`` results in input order;
        malformed or non-finite inputs degrade individually rather than
        failing the batch.
        """
        if not graphs:
            return []
        if level is ServiceLevel.SAFETY_FALLBACK:
            return [self._safety_result(graph) for graph in graphs]

        formed = [_has_layout(graph, self.history_steps) for graph in graphs]
        members = [graph for graph, good in zip(graphs, formed) if good]
        answers = iter(())
        if members:
            stacked = concat_graphs(members)
            finite = _finite_graphs(stacked)
            if finite.any():
                if not finite.all():
                    stacked = _take_rows(stacked, np.repeat(finite, AREA_COUNT))
                answers = iter(self._infer_stacked(stacked, level))
            finite = iter(finite.tolist())
            formed = [good and next(finite) for good in formed]
        return [next(answers) if good
                else self._safety_result(graph, degraded_rows=AREA_COUNT)
                for graph, good in zip(graphs, formed)]

    # ------------------------------------------------------------------
    # rungs
    # ------------------------------------------------------------------
    def _infer_stacked(self, stacked: SpatialTemporalGraph,
                       level: ServiceLevel) -> list[ItemResult]:
        count = stacked.target_features.shape[1] // AREA_COUNT
        if level is ServiceLevel.FULL_HEAD and self.guard is not None:
            prediction, bad_rows = self.guard.predict_stacked(
                stacked, [AREA_COUNT] * count)
            degraded = bad_rows.reshape(count, AREA_COUNT).sum(axis=1).tolist()
            verdicts = [Verdict.DEGRADED_PERCEPTION if rows else Verdict.OK
                        for rows in degraded]
        else:
            # CV rung (or no predictor wired): the guard's fallback for
            # every row -- no perception network.
            level = ServiceLevel.CV_PERCEPTION
            prediction = constant_velocity_fallback(stacked, self.envelope)
            degraded = [0] * count
            verdicts = [Verdict.DEGRADED_PERCEPTION] * count

        actions = self.agent.act_batch(
            augmented_states_from_graph(stacked, prediction), explore=False)
        return [ItemResult(action=action, verdict=verdict, level=level,
                           degraded_rows=rows)
                for action, verdict, rows in zip(actions, verdicts, degraded)]

    def _safety_result(self, graph: SpatialTemporalGraph,
                       degraded_rows: int = 0) -> ItemResult:
        return ItemResult(action=safety_action_from_graph(graph),
                          verdict=Verdict.DEGRADED_FALLBACK,
                          level=ServiceLevel.SAFETY_FALLBACK,
                          degraded_rows=degraded_rows)
