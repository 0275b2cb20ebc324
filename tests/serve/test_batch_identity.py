"""Numerical identity through the serving path (the lock-down suite).

Two properties the batcher's canonical ordering guarantees:

1. A batch of one through the server is **bit-identical** to calling
   ``PDQNAgent.act`` directly on the same graph -- serving adds zero
   numerical perturbation to the single-request path.
2. For a fixed *membership* of a micro-batch, per-request results never
   depend on arrival order: the batcher sorts by request id before
   stacking, so any interleaving of the same requests produces
   bit-identical per-request actions.

3. Bad requests (non-finite or malformed graphs) are quarantined by
   row: every clean request's answer is bitwise the answer of the same
   batch with the bad requests removed.

(What is deliberately NOT claimed: invariance across different batch
*memberships*.  BLAS kernels pick different block schedules for
different stacked shapes, which can shift results by an ulp -- see
docs/serving.md.)
"""

import asyncio

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.decision.pamdp import augmented_state_from_graph
from repro.faults.service import poison_graph
from repro.serve import (BatcherConfig, InferenceServer, ServerConfig,
                         ServiceLevel, Verdict, make_graph_pool)
from tests.serve.malformed import five_target_graph, short_history_graph

SLOW_SETTINGS = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def direct_action(head, graph):
    prediction = head.guard.predict(graph)
    state = augmented_state_from_graph(graph, prediction)
    return head.agent.act(state, explore=False)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@SLOW_SETTINGS
def test_batch_of_one_is_bit_identical_to_direct_act(head, engine, seed):
    graph = make_graph_pool(1, seed=seed,
                            history_steps=head.config.history_steps)[0]
    expected = direct_action(head, graph)

    async def scenario():
        server = InferenceServer(engine, ServerConfig(
            batcher=BatcherConfig(max_batch=4, batch_window=0.0)))
        await server.start()
        response = await server.submit(graph)
        await server.stop()
        return response

    response = asyncio.run(scenario())
    assert response.verdict is Verdict.OK
    assert response.action.behavior is expected.behavior
    # Bitwise, not approx: serving must not perturb the number at all.
    assert (np.float64(response.action.accel).tobytes()
            == np.float64(expected.accel).tobytes())


@given(order=st.permutations(list(range(6))),
       seed=st.integers(min_value=0, max_value=1000))
@SLOW_SETTINGS
def test_arrival_order_never_changes_results(head, engine, order, seed):
    graphs = make_graph_pool(6, seed=seed,
                             history_steps=head.config.history_steps)
    ids = [f"q{index}" for index in range(6)]

    async def scenario(submission_order):
        server = InferenceServer(engine, ServerConfig(
            batcher=BatcherConfig(max_batch=8, batch_window=0.05)))
        await server.start()
        # Submit synchronously (no await between offers) so the worker
        # collects every request into one micro-batch.
        futures = {ids[i]: server.submit_nowait(graphs[i], request_id=ids[i])
                   for i in submission_order}
        responses = await asyncio.gather(*futures.values())
        await server.stop()
        return {response.request_id: response.action
                for response in responses}

    baseline = asyncio.run(scenario(list(range(6))))
    permuted = asyncio.run(scenario(list(order)))
    assert set(baseline) == set(permuted) == set(ids)
    for rid in ids:
        assert baseline[rid].behavior is permuted[rid].behavior
        assert (np.float64(baseline[rid].accel).tobytes()
                == np.float64(permuted[rid].accel).tobytes())


#: How a drawn request is spoiled; ``None`` leaves it clean.
SPOILERS = (None, None, poison_graph, five_target_graph, short_history_graph)


@given(data=st.data(),
       level=st.sampled_from([ServiceLevel.FULL_HEAD,
                              ServiceLevel.CV_PERCEPTION]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bad_requests_never_change_their_batchmates_answers(head, engine,
                                                            data, level):
    pool = make_graph_pool(16, seed=11,
                           history_steps=head.config.history_steps)
    members = data.draw(st.lists(st.integers(0, 15), min_size=1, max_size=16,
                                 unique=True), label="members")
    spoilers = data.draw(st.lists(st.sampled_from(SPOILERS),
                                  min_size=len(members),
                                  max_size=len(members)), label="spoilers")
    graphs = [pool[index] if spoil is None else spoil(pool[index])
              for index, spoil in zip(members, spoilers)]
    clean = [graph for graph, spoil in zip(graphs, spoilers) if spoil is None]

    results = engine.infer(graphs, level)
    alone = iter(engine.infer(clean, level))
    for result, spoil in zip(results, spoilers):
        if spoil is not None:
            assert result.verdict is Verdict.DEGRADED_FALLBACK
            continue
        expected = next(alone)
        assert result == expected
        assert (np.float64(result.action.accel).tobytes()
                == np.float64(expected.action.accel).tobytes())
