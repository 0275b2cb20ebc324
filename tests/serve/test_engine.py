"""BatchInferenceEngine: ladder rungs, quarantined inputs, guard frames, TTC gate."""

import asyncio

import numpy as np
import pytest

from repro.decision.pamdp import LaneBehavior
from repro.decision.safety import _CONTACT_GAP, front_ttc_from_graph
from repro.faults.guard import PerceptionGuard
from repro.faults.service import poison_graph
from repro.perception.graph import SpatialTemporalGraph
from repro.serve import (BatcherConfig, BatchInferenceEngine, InferenceServer,
                         ServerConfig, ServiceLevel, Verdict)
from repro.serve.engine import safety_action_from_graph
from repro.sim import constants
from tests.serve.malformed import (five_target_graph, short_history_graph,
                                   unreadable_graph)


def test_full_head_answers_every_graph(engine, pool):
    results = engine.infer(pool[:4], ServiceLevel.FULL_HEAD)
    assert len(results) == 4
    for result in results:
        assert result.verdict is Verdict.OK
        assert result.level is ServiceLevel.FULL_HEAD
        assert np.isfinite(result.action.accel)


def test_cv_rung_skips_network_and_marks_degraded(engine, pool):
    results = engine.infer(pool[:3], ServiceLevel.CV_PERCEPTION)
    for result in results:
        assert result.verdict is Verdict.DEGRADED_PERCEPTION
        assert result.level is ServiceLevel.CV_PERCEPTION
        assert np.isfinite(result.action.accel)


def test_safety_rung_uses_no_networks(engine, pool):
    results = engine.infer(pool[:3], ServiceLevel.SAFETY_FALLBACK)
    for result in results:
        assert result.verdict is Verdict.DEGRADED_FALLBACK
        assert result.action.behavior is LaneBehavior.KEEP
        assert result.action.accel in (0.0, -constants.A_MAX)


def test_poisoned_graph_is_quarantined(engine, pool):
    graphs = [pool[0], poison_graph(pool[1]), pool[2]]
    results = engine.infer(graphs, ServiceLevel.FULL_HEAD)
    assert results[1].verdict is Verdict.DEGRADED_FALLBACK
    assert results[1].level is ServiceLevel.SAFETY_FALLBACK
    assert results[1].degraded_rows > 0
    # The poisoned neighbor must not contaminate the clean requests ...
    assert results[0].verdict is Verdict.OK
    assert results[2].verdict is Verdict.OK
    # ... whose results match the same clean pair batched alone, bitwise.
    clean = engine.infer([pool[0], pool[2]], ServiceLevel.FULL_HEAD)
    assert results[0].action == clean[0].action
    assert results[2].action == clean[1].action


@pytest.mark.parametrize("malform", [five_target_graph, short_history_graph])
@pytest.mark.parametrize("level", [ServiceLevel.FULL_HEAD,
                                   ServiceLevel.CV_PERCEPTION],
                         ids=["full_head", "cv_perception"])
def test_malformed_graph_is_quarantined(engine, pool, malform, level):
    graphs = [pool[0], malform(pool[1]), pool[2]]
    results = engine.infer(graphs, level)
    assert results[1].verdict is Verdict.DEGRADED_FALLBACK
    assert results[1].level is ServiceLevel.SAFETY_FALLBACK
    assert results[1].degraded_rows == 6
    assert results[1].action == safety_action_from_graph(graphs[1])
    # Its batchmates get the answers they get without it, bitwise.
    assert [results[0], results[2]] == engine.infer([pool[0], pool[2]], level)
    assert results[0].level is level


@pytest.mark.parametrize("field", ["target_features", "contributor_features",
                                   "ego_features", "target_mask"])
def test_a_nan_in_any_array_quarantines_its_graph(engine, pool, field):
    arrays = {name: getattr(pool[1], name).copy()
              for name in ("target_features", "contributor_features",
                           "target_mask", "ego_features")}
    arrays[field].reshape(-1)[-1] = np.nan
    graphs = [pool[0], SpatialTemporalGraph(**arrays), pool[2]]
    results = engine.infer(graphs, ServiceLevel.FULL_HEAD)
    assert results[1].verdict is Verdict.DEGRADED_FALLBACK
    assert [results[0], results[2]] == engine.infer([pool[0], pool[2]],
                                                    ServiceLevel.FULL_HEAD)


def test_unreadable_graph_brakes_and_spares_its_batchmate(engine, pool):
    results = engine.infer([unreadable_graph(), pool[0]],
                           ServiceLevel.FULL_HEAD)
    assert results[0].verdict is Verdict.DEGRADED_FALLBACK
    assert results[0].action.accel == -constants.A_MAX
    assert results[1] == engine.infer([pool[0]], ServiceLevel.FULL_HEAD)[0]
    assert results[1].verdict is Verdict.OK


def test_only_bad_graphs_all_get_safety_answers(engine, pool):
    graphs = [poison_graph(pool[0]), five_target_graph(pool[1])]
    results = engine.infer(graphs, ServiceLevel.FULL_HEAD)
    assert [result.verdict for result in results] == [
        Verdict.DEGRADED_FALLBACK, Verdict.DEGRADED_FALLBACK]


def test_malformed_request_does_not_sink_its_micro_batch(engine, pool):
    graphs = [pool[0], five_target_graph(pool[1]), pool[2]]

    async def scenario():
        server = InferenceServer(engine, ServerConfig(
            batcher=BatcherConfig(max_batch=8, batch_window=0.05)))
        await server.start()
        futures = [server.submit_nowait(graph) for graph in graphs]
        responses = await asyncio.gather(*futures)
        report = server.health_report()
        await server.stop()
        return responses, report

    responses, report = asyncio.run(scenario())
    assert [response.verdict for response in responses] == [
        Verdict.OK, Verdict.DEGRADED_FALLBACK, Verdict.OK]
    assert report.handler_failures_total == 0


def test_empty_batch_is_empty(engine):
    assert engine.infer([], ServiceLevel.FULL_HEAD) == []


class CorruptRows:
    """A raw predictor whose output has one NaN and one out-of-envelope row."""

    def __init__(self, inner, nan_row, far_row):
        self.inner = inner
        self.nan_row = nan_row
        self.far_row = far_row

    def predict(self, graph):
        prediction = np.array(self.inner.predict(graph), dtype=np.float64)
        prediction[self.nan_row] = np.nan
        prediction[self.far_row] = [0.0, 1e6, 0.0]
        return prediction


def test_raw_predictor_is_guarded_like_a_guard(head, pool):
    rows = pool[0].target_features.shape[1]
    fake = CorruptRows(head.predictor, nan_row=5, far_row=rows + 1)
    raw = BatchInferenceEngine(head.agent, fake)
    guarded = BatchInferenceEngine(head.agent, PerceptionGuard(fake))
    graphs = pool[:3]
    results = raw.infer(graphs, ServiceLevel.FULL_HEAD)
    assert results == guarded.infer(graphs, ServiceLevel.FULL_HEAD)
    assert [result.verdict for result in results] == [
        Verdict.DEGRADED_PERCEPTION, Verdict.DEGRADED_PERCEPTION, Verdict.OK]
    assert [result.degraded_rows for result in results] == [1, 1, 0]


def test_front_ttc_matches_hand_math(pool):
    graph = pool[0]
    row = graph.target_features[-1, 1]
    gap = float(row[1]) * 100.0 - constants.VEHICLE_LENGTH
    closing = -float(row[2]) * 10.0
    ttc = front_ttc_from_graph(graph)
    if closing <= 0.0:
        assert ttc is None or gap <= _CONTACT_GAP
    else:
        assert ttc == pytest.approx(gap / closing)


def test_front_ttc_none_for_zero_slot(pool):
    graph = poison_graph(pool[0])
    zeroed = pool[0].target_features.copy()
    zeroed[-1, 1, :] = 0.0
    empty_front = SpatialTemporalGraph(zeroed, pool[0].contributor_features,
                                       pool[0].target_mask,
                                       pool[0].ego_features)
    assert front_ttc_from_graph(empty_front) is None
    assert safety_action_from_graph(empty_front).accel == 0.0
    # Non-finite target features brake unconditionally.
    assert safety_action_from_graph(graph).accel == -constants.A_MAX


def test_safety_brakes_when_ttc_below_threshold(pool):
    base = pool[0]
    features = base.target_features.copy()
    # Gap 25 m (0.25 * 100), closing 15 m/s -> TTC ~ 1.4 s < 3.0.
    features[-1, 1] = [0.0, 0.25, -1.5, 0.0]
    graph = SpatialTemporalGraph(features, base.contributor_features,
                                 base.target_mask, base.ego_features)
    assert safety_action_from_graph(graph).accel == -constants.A_MAX


class NaNForPhantoms:
    """A raw predictor whose rows for unobserved targets are NaN (row-wise)."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, graph):
        prediction = np.array(self.inner.predict(graph), dtype=np.float64)
        prediction[graph.target_mask == 0] = np.nan
        return prediction


def test_guard_counts_one_frame_per_served_graph(head, pool):
    before = head.guard.stats.frames
    BatchInferenceEngine.from_head(head).infer(pool[:8], ServiceLevel.FULL_HEAD)
    assert head.guard.stats.frames == before + 8


def test_served_guard_stats_equal_a_per_graph_predict_loop(head, pool):
    served = PerceptionGuard(NaNForPhantoms(head.predictor))
    looped = PerceptionGuard(NaNForPhantoms(head.predictor))
    results = BatchInferenceEngine(head.agent, served).infer(
        pool[:8], ServiceLevel.FULL_HEAD)
    for graph in pool[:8]:
        looped.predict(graph)
    assert served.stats == looped.stats
    assert served.stats.degraded_frames > 0
    assert [result.degraded_rows for result in results] == [
        int((graph.target_mask == 0).sum()) for graph in pool[:8]]
