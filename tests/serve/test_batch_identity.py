"""Numerical identity through the serving path (the lock-down suite).

Two properties the batcher's canonical ordering guarantees:

1. A batch of one through the server is **bit-identical** to calling
   ``PDQNAgent.act`` directly on the same graph -- serving adds zero
   numerical perturbation to the single-request path.
2. For a fixed *membership* of a micro-batch, per-request results never
   depend on arrival order: the batcher sorts by request id before
   stacking, so any interleaving of the same requests produces
   bit-identical per-request actions.

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
from repro.serve import (BatcherConfig, InferenceServer, ServerConfig,
                         Verdict, make_graph_pool)

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
