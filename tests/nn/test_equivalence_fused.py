"""Golden equivalence: fused VJP-engine ops vs the frozen legacy engine.

Three layers of protection against silent numerical drift in the
refactored autograd core:

1. the fused LSTM (``lstm_step`` / ``lstm_sequence`` single tape nodes)
   against the unfused slice-and-sigmoid reference cell;
2. the batched multi-head GAT einsum against an explicit per-head loop;
3. the complete LST-GAT forward + backward against a golden trace
   (``tests/nn/golden/lstgat_trace.npz``) recorded with the
   pre-refactor closure engine -- prediction, loss and every parameter
   gradient must match to near machine precision.

The reference implementations live in :mod:`tests.oracles.nn`, a
frozen copy of the pre-refactor engine that must never be "optimized".
"""

from pathlib import Path

import numpy as np
import pytest

from repro import nn
from tests.oracles.nn import (
    LegacyTensor,
    legacy_lstgat_step,
    per_head_graph_attention,
    unfused_lstm_cell,
    unfused_lstm_sequence,
)
from repro.perception.lstgat import LSTGAT, GraphAttention
from repro.perception.graph import SpatialTemporalGraph

GOLDEN_PATH = Path(__file__).parent / "golden" / "lstgat_trace.npz"

ATOL = 1e-10


def weights_for(shape) -> np.ndarray:
    size = int(np.prod(shape, initial=1))
    return np.linspace(0.5, 1.5, size).reshape(shape)


# ----------------------------------------------------------------------
# fused LSTM vs unfused reference
# ----------------------------------------------------------------------
def test_fused_lstm_cell_matches_unfused_reference():
    rng = np.random.default_rng(11)
    batch, input_size, hidden_size = 3, 5, 4
    cell_module = nn.LSTMCell(input_size, hidden_size, rng=rng)
    cell_module.bias.data = rng.normal(size=cell_module.bias.data.shape)

    inputs = rng.normal(size=(batch, input_size))
    hidden0 = rng.normal(size=(batch, hidden_size))
    cell0 = rng.normal(size=(batch, hidden_size))

    new_h, new_c = cell_module(nn.Tensor(inputs), nn.Tensor(hidden0),
                               nn.Tensor(cell0))
    w = weights_for(new_h.shape)
    ((new_h * nn.Tensor(w)).sum() + (new_c * nn.Tensor(2.0 * w)).sum()).backward()

    leaves = {
        "weight_ih": LegacyTensor(cell_module.weight_ih.data, requires_grad=True),
        "weight_hh": LegacyTensor(cell_module.weight_hh.data, requires_grad=True),
        "bias": LegacyTensor(cell_module.bias.data, requires_grad=True),
    }
    ref_h, ref_c = unfused_lstm_cell(
        LegacyTensor(inputs), LegacyTensor(hidden0), LegacyTensor(cell0),
        leaves["weight_ih"], leaves["weight_hh"], leaves["bias"])
    ((ref_h * LegacyTensor(w)).sum()
     + (ref_c * LegacyTensor(2.0 * w)).sum()).backward()

    np.testing.assert_allclose(new_h.data, ref_h.data, atol=ATOL, rtol=0)
    np.testing.assert_allclose(new_c.data, ref_c.data, atol=ATOL, rtol=0)
    for name, param in (("weight_ih", cell_module.weight_ih),
                        ("weight_hh", cell_module.weight_hh),
                        ("bias", cell_module.bias)):
        np.testing.assert_allclose(param.grad, leaves[name].grad,
                                   atol=ATOL, rtol=0, err_msg=name)


def test_fused_lstm_sequence_matches_unfused_reference():
    rng = np.random.default_rng(12)
    batch, steps, input_size, hidden_size = 4, 5, 6, 3
    lstm = nn.LSTM(input_size, hidden_size, rng=rng)
    lstm.cell.bias.data = rng.normal(size=lstm.cell.bias.data.shape)

    sequence = rng.normal(size=(batch, steps, input_size))
    outputs, (final_h, final_c) = lstm(nn.Tensor(sequence))
    assert outputs.shape == (batch, steps, hidden_size)
    w = weights_for(outputs.shape)
    ((outputs * nn.Tensor(w)).sum()
     + (final_c * nn.Tensor(np.full((batch, hidden_size), 0.7))).sum()).backward()

    leaves = {
        "weight_ih": LegacyTensor(lstm.cell.weight_ih.data, requires_grad=True),
        "weight_hh": LegacyTensor(lstm.cell.weight_hh.data, requires_grad=True),
        "bias": LegacyTensor(lstm.cell.bias.data, requires_grad=True),
    }
    ref_out, ref_h, ref_c = unfused_lstm_sequence(
        LegacyTensor(sequence), leaves["weight_ih"], leaves["weight_hh"],
        leaves["bias"])
    ((ref_out * LegacyTensor(w)).sum()
     + (ref_c * LegacyTensor(np.full((batch, hidden_size), 0.7))).sum()).backward()

    np.testing.assert_allclose(outputs.data, ref_out.data, atol=ATOL, rtol=0)
    np.testing.assert_allclose(final_h.data, ref_h.data, atol=ATOL, rtol=0)
    np.testing.assert_allclose(final_c.data, ref_c.data, atol=ATOL, rtol=0)
    for name, param in (("weight_ih", lstm.cell.weight_ih),
                        ("weight_hh", lstm.cell.weight_hh),
                        ("bias", lstm.cell.bias)):
        np.testing.assert_allclose(param.grad, leaves[name].grad,
                                   atol=ATOL, rtol=0, err_msg=name)


# ----------------------------------------------------------------------
# batched GAT einsum vs per-head loop
# ----------------------------------------------------------------------
def _random_graph_features(rng, z=5, n=6, slots=7, feat=4):
    targets = rng.normal(size=(z, n, feat))
    contributors = rng.normal(size=(z, n, slots, feat))
    # Realistic padding: a phantom contributor slot and a phantom target
    # whose features (and hence attention) must be masked out.
    contributors[:, :, 4, :] = 0.0
    contributors[:, 2, :, :] = 0.0
    targets[:, 2, :] = 0.0
    return targets, contributors


def test_batched_gat_matches_per_head_loop():
    rng = np.random.default_rng(13)
    attention = GraphAttention(feature_dim=4, hidden_dim=12, num_heads=4,
                               rng=rng)
    targets, contributors = _random_graph_features(rng)

    out = attention(nn.Tensor(targets), nn.Tensor(contributors))
    w = weights_for(out.shape)
    (out * nn.Tensor(w)).sum().backward()

    params = {"phi1": attention.phi1.data, "phi3": attention.phi3.data,
              "attn_src": attention.attn_src.data,
              "attn_dst": attention.attn_dst.data}
    ref_out, leaves = per_head_graph_attention(params, targets, contributors,
                                               num_heads=4)
    (ref_out * LegacyTensor(w)).sum().backward()

    np.testing.assert_allclose(out.data, ref_out.data, atol=ATOL, rtol=0)
    for name, param in (("phi1", attention.phi1),
                        ("attn_src", attention.attn_src),
                        ("attn_dst", attention.attn_dst),
                        ("phi3", attention.phi3)):
        np.testing.assert_allclose(param.grad, leaves[name].grad,
                                   atol=ATOL, rtol=0, err_msg=name)


def test_attention_map_matches_per_head_softmax():
    """The interpretability view shares math with the training forward."""
    rng = np.random.default_rng(14)
    attention = GraphAttention(feature_dim=4, hidden_dim=8, num_heads=2,
                               rng=rng)
    targets, contributors = _random_graph_features(rng, z=3)
    with nn.no_grad():
        alpha = attention.attention_weights(nn.Tensor(targets),
                                            nn.Tensor(contributors))
    sums = alpha.data.sum(axis=2)
    np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


# ----------------------------------------------------------------------
# end-to-end golden trace (recorded with the pre-refactor engine)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        "golden trace missing; regenerate ONLY with the pre-refactor "
        "engine via scripts/make_lstgat_golden.py")
    return np.load(GOLDEN_PATH)


@pytest.fixture(scope="module")
def golden_model(golden):
    model = LSTGAT(attention_dim=64, lstm_dim=64,
                   rng=np.random.default_rng(7))
    model.load_state_dict({key[len("param::"):]: golden[key]
                           for key in golden.files
                           if key.startswith("param::")})
    return model


@pytest.fixture()
def golden_graph(golden):
    return SpatialTemporalGraph(
        golden["target_features"], golden["contributor_features"],
        golden["target_mask"], golden["ego_features"])


def test_end_to_end_golden_trace(golden, golden_model, golden_graph):
    golden_model.zero_grad()
    loss = golden_model.loss(golden_graph, golden["truth"])
    loss.backward()

    with nn.no_grad():
        residual = golden_model.forward_graph(golden_graph)
    np.testing.assert_allclose(residual.data, golden["prediction"],
                               atol=ATOL, rtol=0)
    np.testing.assert_allclose(loss.item(), float(golden["loss"]),
                               atol=ATOL, rtol=0)
    for name, param in golden_model.named_parameters():
        np.testing.assert_allclose(param.grad, golden[f"grad::{name}"],
                                   atol=ATOL, rtol=0, err_msg=name)


def test_legacy_step_reproduces_golden_trace(golden, golden_model, golden_graph):
    """The frozen reference engine itself must still emit the golden trace.

    If this fails, ``tests/oracles/nn.py`` drifted -- which would quietly
    invalidate both the equivalence suite and the benchmark baseline.
    """
    state = golden_model.state_dict()
    baseline = golden_model.kinematic_baseline(golden_graph)
    prediction, loss, grads = legacy_lstgat_step(
        state, golden_graph.target_features, golden_graph.contributor_features,
        golden_graph.ego_features, baseline, golden["truth"],
        golden_graph.target_mask)
    # legacy_lstgat_step returns the full prediction (residual + the
    # precomputed kinematic baseline); the golden file stores the raw
    # network residual.
    np.testing.assert_allclose(prediction - baseline, golden["prediction"],
                               atol=ATOL, rtol=0)
    np.testing.assert_allclose(loss, float(golden["loss"]), atol=ATOL, rtol=0)
    for name in state:
        np.testing.assert_allclose(grads[name], golden[f"grad::{name}"],
                                   atol=ATOL, rtol=0, err_msg=name)
