"""Batched HEAD inference: one forward per micro-batch, per ladder rung.

The engine is the synchronous compute core under the async server: it
takes a list of perception graphs (one per request) and produces one
action per graph, batched through the entry points the rest of the repo
already trusts -- :func:`~repro.perception.graph.concat_graphs` +
:meth:`~repro.faults.guard.PerceptionGuard.predict` for perception and
:meth:`~repro.decision.agents.PDQNAgent.act_batch` for decision.

Ladder semantics (:class:`~repro.serve.types.ServiceLevel`):

* ``FULL_HEAD`` -- stacked LST-GAT forward through the engine's
  :class:`~repro.faults.guard.PerceptionGuard` (so NaN or out-of-envelope
  rows degrade per request instead of poisoning the batch), then one
  ``act_batch`` forward.
* ``CV_PERCEPTION`` -- the guard module's constant-velocity fallback
  used for *every* row (no perception network), then ``act_batch``.
* ``SAFETY_FALLBACK`` -- no networks at all: the degraded-perception TTC
  gate of :mod:`repro.decision.safety`, evaluated directly on each
  graph's front-target row.

Poisoned inputs (non-finite graph arrays) are filtered *before*
stacking -- one corrupt client must never contaminate a batch -- and
answered with a safety-fallback action and a degraded verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..decision.agents import PDQNAgent
from ..decision.pamdp import (LaneBehavior, ParameterizedAction,
                              augmented_state_from_graph)
from ..decision.safety import TTC_DEGRADED, front_ttc_from_graph
from ..faults.guard import (DEFAULT_ENVELOPE, PerceptionGuard,
                            constant_velocity_fallback)
from ..perception.graph import SpatialTemporalGraph, concat_graphs, split_rows
from ..sim import constants
from .types import ServiceLevel, Verdict

__all__ = ["ItemResult", "BatchInferenceEngine", "safety_action_from_graph"]


def safety_action_from_graph(graph: SpatialTemporalGraph) -> ParameterizedAction:
    """The bottom-rung answer: keep the lane, brake when TTC demands it.

    Uses the *degraded* threshold :data:`~repro.decision.safety.TTC_DEGRADED`
    -- at this rung perception is by definition untrusted, so braking
    starts early.  A graph too corrupt to yield a TTC brakes
    unconditionally: unknown is treated as imminent.
    """
    finite = np.isfinite(graph.target_features).all()
    ttc = front_ttc_from_graph(graph)
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


def _graph_is_finite(graph: SpatialTemporalGraph) -> bool:
    return bool(np.isfinite(graph.target_features).all()
                and np.isfinite(graph.contributor_features).all()
                and np.isfinite(graph.ego_features).all()
                and np.isfinite(graph.target_mask).all())


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
    """

    def __init__(self, agent: PDQNAgent, predictor=None) -> None:
        self.agent = agent
        if predictor is None or isinstance(predictor, PerceptionGuard):
            self.guard = predictor
        else:
            self.guard = PerceptionGuard(predictor)
        self.envelope = (self.guard.envelope if self.guard is not None
                         else np.array(DEFAULT_ENVELOPE))

    @classmethod
    def from_head(cls, head) -> "BatchInferenceEngine":
        """Build from a :class:`repro.core.head.HEAD` instance."""
        return cls(head.agent, head.guard)

    # ------------------------------------------------------------------
    # the one entry point
    # ------------------------------------------------------------------
    def infer(self, graphs: list[SpatialTemporalGraph],
              level: ServiceLevel) -> list[ItemResult]:
        """Answer every graph at the given ladder rung.

        Always returns exactly ``len(graphs)`` results in input order;
        corrupt inputs degrade individually rather than failing the
        batch.
        """
        if not graphs:
            return []
        if level is ServiceLevel.SAFETY_FALLBACK:
            return [self._safety_result(graph) for graph in graphs]

        finite_mask = [_graph_is_finite(graph) for graph in graphs]
        clean = [graph for graph, good in zip(graphs, finite_mask) if good]
        clean_results = self._infer_clean(clean, level) if clean else []

        results: list[ItemResult] = []
        clean_iter = iter(clean_results)
        for graph, good in zip(graphs, finite_mask):
            if good:
                results.append(next(clean_iter))
            else:
                poisoned = self._safety_result(graph)
                poisoned.degraded_rows = graph.target_features.shape[1]
                results.append(poisoned)
        return results

    # ------------------------------------------------------------------
    # rungs
    # ------------------------------------------------------------------
    def _infer_clean(self, graphs: list[SpatialTemporalGraph],
                     level: ServiceLevel) -> list[ItemResult]:
        counts = [graph.target_features.shape[1] for graph in graphs]
        stacked = concat_graphs(graphs)
        if level is ServiceLevel.FULL_HEAD and self.guard is not None:
            prediction = self.guard.predict(stacked)
            bad_rows = self.guard.last_bad_rows
        else:
            # CV rung (or no predictor wired): the guard's fallback for
            # every row -- no perception network.
            level = ServiceLevel.CV_PERCEPTION
            prediction = constant_velocity_fallback(stacked, self.envelope)
            bad_rows = np.zeros(len(prediction), dtype=bool)

        states = [augmented_state_from_graph(graph, rows)
                  for graph, rows in zip(graphs, split_rows(prediction, counts))]
        actions = self.agent.act_batch(states, explore=False)

        results = []
        for graph, action, bad in zip(graphs, actions,
                                      split_rows(bad_rows, counts)):
            degraded = int(bad.sum())
            if level is ServiceLevel.FULL_HEAD and degraded == 0:
                verdict = Verdict.OK
            else:
                verdict = Verdict.DEGRADED_PERCEPTION
            results.append(ItemResult(action=action, verdict=verdict,
                                      level=level, degraded_rows=degraded))
        return results

    def _safety_result(self, graph: SpatialTemporalGraph) -> ItemResult:
        action = safety_action_from_graph(graph)
        return ItemResult(action=action, verdict=Verdict.DEGRADED_FALLBACK,
                          level=ServiceLevel.SAFETY_FALLBACK)
