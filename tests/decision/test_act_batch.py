"""``PDQNAgent.act_batch``: greedy batched actions agree with ``act``.

Fleet stepping and the inference server both answer many AVs with one
``act_batch`` forward, so its greedy decisions must match ``act`` state
for state -- bitwise for a batch of one.  The server hands it one
:class:`~repro.decision.pamdp.StateBlock` built from a stacked graph,
which must give the same bits as the list of per-graph states.
"""

import numpy as np
import pytest

from repro.decision import DrivingEnv, HybridReward, PDQNAgent
from repro.decision.pamdp import (StateBlock, augmented_state_from_graph,
                                  augmented_states_from_graph)
from repro.perception import EnhancedPerception
from repro.perception.graph import concat_graphs
from repro.serve import make_graph_pool
from repro.sim import Road


def make_env():
    return DrivingEnv(EnhancedPerception(predictor=None), reward=HybridReward(),
                      road=Road(length=400.0), density_per_km=100,
                      max_steps=40)


@pytest.fixture(scope="module")
def agent():
    return PDQNAgent(branched=True, hidden_dim=16,
                     rng=np.random.default_rng(0))


def test_act_batch_matches_act(agent):
    env = make_env()
    states = [env.reset(seed) for seed in range(6)]
    batched = agent.act_batch(states, explore=False)
    singles = [agent.act(state, explore=False) for state in states]
    assert len(batched) == len(singles)
    for one, many in zip(singles, batched):
        assert many.behavior is one.behavior
        # A multi-row matmul may take a different BLAS path than the
        # single-row forward, so allow ULP-level drift here; exact
        # equality is required only for batch-of-1 (next test).
        assert many.accel == pytest.approx(one.accel, rel=1e-12, abs=1e-12)


def test_act_batch_of_one_is_exact(agent):
    env = make_env()
    for seed in range(4):
        state = env.reset(seed)
        (batched,) = agent.act_batch([state], explore=False)
        single = agent.act(state, explore=False)
        assert batched.behavior is single.behavior
        assert batched.accel == single.accel


def test_act_batch_empty(agent):
    assert agent.act_batch([], explore=False) == []


def stacked_states(count, seed=3):
    """``count`` pool graphs, their stack, and a plausible stacked prediction."""
    graphs = make_graph_pool(count, seed=seed)
    prediction = np.random.default_rng(seed).normal(0.0, 5.0, (6 * count, 3))
    return graphs, concat_graphs(graphs), prediction


def test_state_builder_rows_equal_the_single_graph_builder():
    graphs, stacked, prediction = stacked_states(5)
    block = augmented_states_from_graph(stacked, prediction)
    assert block.current.shape == (5, 7, 4)
    assert block.future.shape == (5, 6, 4)
    assert block.target_mask.shape == (5, 6)
    for index, graph in enumerate(graphs):
        one = augmented_state_from_graph(
            graph, prediction[6 * index:6 * (index + 1)])
        assert one.current.tobytes() == block.current[index].tobytes()
        assert one.future.tobytes() == block.future[index].tobytes()
        assert one.target_mask.tobytes() == block.target_mask[index].tobytes()


def test_state_builder_copies_the_mask():
    graphs, stacked, prediction = stacked_states(2)
    block = augmented_states_from_graph(stacked, prediction)
    block.target_mask[:] = -1.0
    assert (stacked.target_mask >= 0.0).all()


def test_act_batch_of_a_block_equals_act_batch_of_its_states(agent):
    graphs, stacked, prediction = stacked_states(7)
    block = augmented_states_from_graph(stacked, prediction)
    assert isinstance(block, StateBlock)
    from_list = agent.act_batch(
        [augmented_state_from_graph(graph, prediction[6 * i:6 * (i + 1)])
         for i, graph in enumerate(graphs)], explore=False)
    from_block = agent.act_batch(block, explore=False)
    assert len(from_block) == len(from_list) == 7
    for one, many in zip(from_list, from_block):
        assert many.behavior is one.behavior
        assert (np.float64(many.accel).tobytes()
                == np.float64(one.accel).tobytes())
