"""Tests for Module bookkeeping, layers, recurrent nets, and checkpointing."""

import copy
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.decision import PDQNAgent
from repro.faults import load_checkpoint, save_checkpoint
from repro.nn import (
    LSTM, MLP, Adam, Linear, Module, Parameter, ReLU, Sequential, Tensor,
    clip_grad_norm, load_module, masked_mse_loss, mse_loss, save_module,
)
from repro.nn.module import flatten
from repro.train.sync import SharedPolicy, policy_modules


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_linear_shapes_and_bias(rng):
    layer = Linear(5, 3, rng=rng)
    out = layer(Tensor(rng.standard_normal((4, 5))))
    assert out.shape == (4, 3)
    no_bias = Linear(5, 3, bias=False, rng=rng)
    assert no_bias.bias is None
    assert len(no_bias.parameters()) == 1


def test_named_parameters_cover_nested_modules(rng):
    net = Sequential(Linear(2, 4, rng=rng), ReLU(), Linear(4, 1, rng=rng))
    names = [name for name, _ in net.named_parameters()]
    assert names == [
        "children_list.0.weight", "children_list.0.bias",
        "children_list.2.weight", "children_list.2.bias",
    ]


def test_state_dict_roundtrip(rng):
    net = MLP([3, 8, 2], rng=rng)
    snapshot = net.state_dict()
    for parameter in net.parameters():
        parameter.data += 1.0
    net.load_state_dict(snapshot)
    for name, parameter in net.named_parameters():
        assert np.allclose(parameter.data, snapshot[name])


def test_load_state_dict_validates_names_and_shapes(rng):
    net = MLP([3, 8, 2], rng=rng)
    with pytest.raises(KeyError):
        net.load_state_dict({"bogus": np.zeros(1)})
    bad = net.state_dict()
    key = next(iter(bad))
    bad[key] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        net.load_state_dict(bad)


def test_soft_update_interpolates(rng):
    source = Linear(2, 2, rng=rng)
    target = Linear(2, 2, rng=rng)
    before = target.weight.data.copy()
    target.soft_update_from(source, tau=0.25)
    expected = 0.25 * source.weight.data + 0.75 * before
    assert np.allclose(target.weight.data, expected)


def test_copy_from_makes_exact_clone(rng):
    source = MLP([2, 4, 1], rng=rng)
    target = MLP([2, 4, 1], rng=rng)
    target.copy_from(source)
    x = Tensor(rng.standard_normal((3, 2)))
    assert np.allclose(source(x).data, target(x).data)


def assert_attached(optimizer):
    """Every managed parameter is still a view into the optimizer's vectors."""
    for parameter in optimizer.parameters:
        assert np.shares_memory(parameter.data, optimizer._data)
        assert np.shares_memory(parameter.grad, optimizer._grad)


def small_agent(seed):
    return PDQNAgent(hidden_dim=8, buffer_capacity=32,
                     rng=np.random.default_rng(seed))


def test_store_survives_every_bulk_write(rng, tmp_path):
    net = MLP([3, 8, 2], rng=rng)
    other = MLP([3, 8, 2], rng=rng)
    optimizer = Adam(net.parameters())
    assert_attached(optimizer)
    net.copy_from(other)
    assert_attached(optimizer)
    net.soft_update_from(other, tau=0.3)
    assert_attached(optimizer)
    net.load_state_dict(other.state_dict())
    assert_attached(optimizer)
    load_module(net, save_module(other, tmp_path / "other"))
    assert_attached(optimizer)
    assert np.array_equal(net.store()[0], other.store()[0])

    source, agent = small_agent(1), small_agent(2)
    load_checkpoint(save_checkpoint(tmp_path / "agent.ckpt.npz", source), agent)
    assert_attached(agent.opt_q)
    assert_attached(agent.opt_x)
    assert np.array_equal(agent.q_net.store()[0], source.q_net.store()[0])

    source, agent = small_agent(3), small_agent(4)
    policy = SharedPolicy.for_agent(multiprocessing.get_context("spawn"), agent)
    policy.publish(policy_modules(source))
    policy.refresh(policy_modules(agent), held_version=0)
    assert_attached(agent.opt_q)
    assert_attached(agent.opt_x)
    assert np.array_equal(agent.x_net.store()[0], source.x_net.store()[0])


def test_flatten_rejects_parameters_from_two_stores(rng):
    first, second = Linear(2, 2, rng=rng), Linear(2, 2, rng=rng)
    first.store()
    second.store()
    with pytest.raises(ValueError):
        flatten(first.parameters() + second.parameters())
    with pytest.raises(ValueError):
        flatten(first.parameters()[::-1])


def test_stored_parameter_refuses_rebinding(rng):
    layer = Linear(2, 2, rng=rng)
    Adam(layer.parameters())
    with pytest.raises(TypeError, match="in place"):
        layer.weight.data = np.zeros((2, 2))
    with pytest.raises(TypeError, match="in place"):
        layer.bias.grad = np.zeros(2)


@pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                       lambda agent: pickle.loads(pickle.dumps(agent))],
                         ids=["deepcopy", "pickle"])
def test_copied_agent_keeps_its_own_store(duplicate):
    agent = small_agent(5)
    before = agent.q_net.store()[0].copy()
    clone = duplicate(agent)
    assert_attached(clone.opt_q)
    for parameter in clone.q_net.parameters():
        parameter.grad[...] = 1.0
    clone.opt_q.step()
    assert not np.array_equal(clone.q_net.store()[0], before)
    assert np.array_equal(agent.q_net.store()[0], before)

    # a sub-module whose vectors are a slice of a larger store
    net = MLP([2, 3, 1], rng=np.random.default_rng(6))
    optimizer = Adam(net.parameters())
    net.net.children_list[2].store()
    net_clone, optimizer_clone = duplicate((net, optimizer))
    assert np.shares_memory(net_clone.net.children_list[2].store()[0],
                            optimizer_clone._data)


def test_num_parameters(rng):
    net = Linear(3, 4, rng=rng)
    assert net.num_parameters() == 3 * 4 + 4


def test_adam_fits_linear_regression(rng):
    true_weight = np.array([[2.0, -1.0]])
    x = rng.standard_normal((64, 2))
    y = x @ true_weight.T
    model = Linear(2, 1, rng=rng)
    optimizer = Adam(model.parameters(), lr=0.05)
    for _ in range(400):
        optimizer.zero_grad()
        loss = mse_loss(model(Tensor(x)), Tensor(y))
        loss.backward()
        optimizer.step()
    assert np.allclose(model.weight.data, true_weight, atol=0.05)


def test_optimizer_rejects_empty_parameter_list():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)


def test_clip_grad_norm_scales():
    weight = Parameter(np.array([3.0, 4.0]))
    weight.grad = np.array([3.0, 4.0])
    norm = clip_grad_norm([weight], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(weight.grad) == pytest.approx(1.0)


def test_clip_grad_norm_noop_below_threshold():
    weight = Parameter(np.array([0.3]))
    weight.grad = np.array([0.3])
    clip_grad_norm([weight], max_norm=1.0)
    assert weight.grad[0] == pytest.approx(0.3)


def test_mse_loss_value():
    loss = mse_loss(Tensor([[1.0, 2.0]]), Tensor([[3.0, 2.0]]))
    assert loss.item() == pytest.approx(2.0)


def test_masked_mse_ignores_masked_rows():
    prediction = Tensor(np.array([[1.0, 1.0], [100.0, 100.0]]), requires_grad=True)
    target = Tensor(np.zeros((2, 2)))
    loss = masked_mse_loss(prediction, target, np.array([1.0, 0.0]))
    assert loss.item() == pytest.approx(1.0)
    loss.backward()
    assert np.allclose(prediction.grad[1], 0.0)


def test_masked_mse_all_masked_is_zero():
    prediction = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = masked_mse_loss(prediction, Tensor(np.zeros((2, 3))), np.zeros(2))
    assert loss.item() == 0.0


def test_masked_mse_validates_mask_shape():
    with pytest.raises(ValueError):
        masked_mse_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), np.ones(3))


def test_lstm_sequence_shapes_and_state(rng):
    lstm = LSTM(3, 6, rng=rng)
    outputs, (hidden, cell) = lstm(Tensor(rng.standard_normal((4, 7, 3))))
    assert outputs.shape == (4, 7, 6)
    assert hidden.shape == (4, 6)
    assert np.allclose(outputs.data[:, -1, :], hidden.data)


def test_lstm_learns_to_remember_first_token(rng):
    """The LSTM must carry information across time: predict first input."""
    lstm = LSTM(1, 8, rng=rng)
    head = Linear(8, 1, rng=rng)
    params = lstm.parameters() + head.parameters()
    optimizer = Adam(params, lr=0.02)
    x = rng.choice([-1.0, 1.0], size=(32, 5, 1))
    y = x[:, 0, :]
    for _ in range(150):
        optimizer.zero_grad()
        _, (hidden, _) = lstm(Tensor(x))
        loss = mse_loss(head(hidden), Tensor(y))
        loss.backward()
        optimizer.step()
    assert loss.item() < 0.1


def test_checkpoint_roundtrip(tmp_path, rng):
    net = MLP([4, 8, 2], rng=rng)
    path = save_module(net, tmp_path / "model")
    clone = MLP([4, 8, 2], rng=np.random.default_rng(99))
    load_module(clone, path)
    x = Tensor(rng.standard_normal((5, 4)))
    assert np.allclose(net(x).data, clone(x).data)


def test_mlp_requires_two_sizes():
    with pytest.raises(ValueError):
        MLP([4])


def test_module_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        Module()(None)
