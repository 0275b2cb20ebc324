"""``PDQNAgent.act_batch``: greedy batched actions agree with ``act``.

Fleet stepping and the inference server both answer many AVs with one
``act_batch`` forward, so its greedy decisions must match ``act`` state
for state -- bitwise for a batch of one.
"""

import numpy as np
import pytest

from repro.decision import DrivingEnv, HybridReward, PDQNAgent
from repro.perception import EnhancedPerception
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
