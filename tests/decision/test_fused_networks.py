"""The fused BP-DQN ops reproduce the module chains they replaced, bit for bit.

``BranchedXNetwork`` and ``BranchedQNetwork`` record one tape node each
(``branched_x``/``branched_q``) whose forward and VJP repeat the numpy
calls of the chain of ``linear``/``relu``/``concat``/``tanh`` ops kept in
``tests/oracles/nn.py``.  Values and every gradient must have the same
bits as that chain, for any batch size and width, including rows whose
pre-activations are all negative (dead ReLUs, ``-0.0`` products).

The x-loss runs with the Q-network frozen (``Module.frozen``): it must
give the same losses and weights as an unfrozen update, and leave the
critic's gradient vector untouched.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.decision import AugmentedState, PDQNAgent, Transition
from repro.decision.networks import (BranchedQNetwork, BranchedXNetwork,
                                     NUM_BEHAVIORS)
from repro.decision.pamdp import CURRENT_SHAPE, FUTURE_SHAPE
from tests.oracles.nn import composed_branched_q, composed_branched_x

#: Share of vehicle rows pushed to all-negative first-layer pre-activations.
DEAD_SHARE = 0.3


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def randomize(net: nn.Module, rng: np.random.Generator) -> None:
    """Nonzero biases everywhere; the lifts' first input column positive.

    A positive first column lets :func:`rows` kill a whole row: a large
    negative first feature makes every hidden pre-activation negative.
    """
    for name, parameter in net.named_parameters():
        parameter.data[...] = rng.normal(0.0, 0.5, parameter.shape)
        if name.endswith("lift.weight"):
            parameter.data[:, 0] = np.abs(parameter.data[:, 0]) + 0.5


def rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    values = rng.normal(0.0, 1.0, shape)
    dead = rng.random(shape[:-1]) < DEAD_SHARE
    values[..., 0][dead] = -50.0
    return values


def leaves(arrays: list[np.ndarray]) -> list[nn.Tensor]:
    return [nn.Tensor(array, requires_grad=True) for array in arrays]


def forward_and_grads(net, forward, arrays, upstream):
    """Output, parameter store gradient and input gradients of one pass."""
    net.zero_grad()
    inputs = leaves(arrays)
    out = forward(*inputs)
    out.backward(upstream)
    return out.data.copy(), net.store()[1].copy(), [t.grad for t in inputs]


@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 64),
       hidden=st.sampled_from([1, 8, 16, 64]),
       kind=st.sampled_from(["x", "q"]))
@settings(max_examples=60, deadline=None)
def test_fused_op_matches_the_module_chain(seed, batch, hidden, kind):
    rng = np.random.default_rng(seed)
    arrays = [rows(rng, (batch, *CURRENT_SHAPE)), rows(rng, (batch, *FUTURE_SHAPE))]
    if kind == "x":
        net = BranchedXNetwork(hidden, rng=rng)
        composed = lambda *inputs: composed_branched_x(net, *inputs)
    else:
        net = BranchedQNetwork(hidden, rng=rng)
        composed = lambda *inputs: composed_branched_q(net, *inputs)
        arrays.append(rows(rng, (batch, NUM_BEHAVIORS)))
    net.store()
    randomize(net, rng)
    upstream = rng.normal(0.0, 1.0, (batch, NUM_BEHAVIORS))

    fused = forward_and_grads(net, net, arrays, upstream)
    chain = forward_and_grads(net, composed, arrays, upstream)
    assert_bitwise(fused[0], chain[0])
    assert_bitwise(fused[1], chain[1])
    for fused_grad, chain_grad in zip(fused[2], chain[2]):
        assert_bitwise(fused_grad, chain_grad)
    with nn.no_grad():
        assert_bitwise(net(*[nn.Tensor(a) for a in arrays]).data, chain[0])


@pytest.mark.parametrize("cls", [BranchedXNetwork, BranchedQNetwork])
def test_weights_are_the_parameters_in_store_order(cls):
    net = cls(8, rng=np.random.default_rng(0))
    assert list(map(id, net.weights())) == list(map(id, net.parameters()))


def test_a_parameter_frozen_at_forward_time_gets_no_gradient():
    rng = np.random.default_rng(1)
    net = BranchedQNetwork(8, rng=rng)
    net.store()
    accels = nn.Tensor(rng.normal(0.0, 1.0, (4, NUM_BEHAVIORS)), requires_grad=True)
    with net.frozen():
        out = net(nn.Tensor(rows(rng, (4, *CURRENT_SHAPE))),
                  nn.Tensor(rows(rng, (4, *FUTURE_SHAPE))), accels)
    assert all(p.requires_grad for p in net.parameters())  # flags restored
    out.sum().backward()
    assert not net.store()[1].any()
    assert accels.grad is not None and accels.grad.any()


# ----------------------------------------------------------------------
# one full BP-DQN update
# ----------------------------------------------------------------------
def make_agent(seed: int = 5) -> PDQNAgent:
    rng = np.random.default_rng(seed)
    agent = PDQNAgent(branched=True, hidden_dim=16, warmup=32, batch_size=32,
                      rng=np.random.default_rng(seed + 1))
    for _ in range(48):
        state = AugmentedState(rows(rng, CURRENT_SHAPE), rows(rng, FUTURE_SHAPE),
                               np.ones(6))
        action = agent.act(state, explore=True)
        agent.observe(Transition(
            state=state, behavior=int(action.behavior), accel=action.accel,
            reward=float(rng.normal()), done=False, aux=agent.last_aux(),
            next_state=AugmentedState(rows(rng, CURRENT_SHAPE),
                                      rows(rng, FUTURE_SHAPE), np.ones(6))))
    return agent


def update(agent: PDQNAgent) -> tuple[dict, list[np.ndarray]]:
    losses = agent.learn()
    return losses, [net.store()[0].copy() for net in
                    (agent.x_net, agent.q_net, agent.x_target, agent.q_target)]


def test_frozen_critic_update_equals_the_unfrozen_one(monkeypatch):
    frozen_agent = make_agent()
    critic_grads = []
    backward = nn.Tensor.backward

    def watched(self, *args):
        backward(self, *args)
        critic_grads.append(frozen_agent.q_net.store()[1].copy())

    monkeypatch.setattr(nn.Tensor, "backward", watched)
    frozen_losses, frozen_stores = update(frozen_agent)
    monkeypatch.undo()

    free_agent = make_agent()
    free_agent.q_net.frozen = contextlib.nullcontext
    free_losses, free_stores = update(free_agent)

    assert frozen_losses == free_losses
    for frozen, free in zip(frozen_stores, free_stores):
        assert_bitwise(frozen, free)
    q_backward, x_backward = critic_grads
    assert q_backward.any() and not x_backward.any()
    assert free_agent.q_net.store()[1].any()  # unfrozen: the critic got gradients


def test_update_equals_the_module_chain_update(monkeypatch):
    fused_losses, fused_stores = update(make_agent())
    monkeypatch.setattr(BranchedXNetwork, "forward", composed_branched_x)
    monkeypatch.setattr(BranchedQNetwork, "forward", composed_branched_q)
    chain_losses, chain_stores = update(make_agent())
    assert fused_losses == chain_losses
    for fused, chain in zip(fused_stores, chain_stores):
        assert_bitwise(fused, chain)


def test_an_update_records_at_most_twenty_tape_nodes(monkeypatch):
    agent = make_agent()
    batch = agent.buffer.sample(agent.batch_size)
    nodes = []
    make_child = nn.Tensor._make_child

    def counted(self, data, parents):
        nodes.append(1)
        return make_child(self, data, parents)

    monkeypatch.setattr(nn.Tensor, "_make_child", counted)
    agent._update(batch)
    assert len(nodes) <= 20
