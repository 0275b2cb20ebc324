"""The fused graph attention op reproduces the module chain it replaced, bit for bit.

``GraphAttention`` records one tape node (``gat_attention``) whose
forward makes the einsum contractions of the chain kept in
``tests/oracles/nn.py`` (``composed_gat_attention``) and works in place
on one score block, with three kernels swapped for forms that give the
same bits: a slice-loop softmax, ``max(x, slope * x)`` for the leaky
ReLU and a chain of ``== 0`` tests for the padding mask.  Its VJP repeats
the chain's registered VJP expressions in tape order.  Values and every
gradient must carry the same bits as the chain's, sign bits included,
for any number of graphs and heads, with padded slots, fully padded
targets and any slope in [0, 1].
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.perception.graph import CONTRIBUTORS, FEATURE_DIM
from repro.perception.lstgat import GraphAttention
from tests.oracles.nn import composed_attention_weights, composed_gat_attention

#: Targets per graph: the six surroundings of the ego.
TARGETS_PER_GRAPH = 6


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def features(rng: np.random.Generator, z: int, n: int, padded_share: float,
             empty_share: float) -> tuple[np.ndarray, np.ndarray]:
    """Targets ``(z, n, 4)`` and contributors ``(z, n, 7, 4)``.

    Padded slots hold signed zeros (``-0.0`` is padding too); an empty
    target has every slot padded and zero features, like a phantom.
    """
    contributors = rng.normal(0.0, 1.0, (z, n, CONTRIBUTORS, FEATURE_DIM))
    padded = rng.random((n, CONTRIBUTORS)) < padded_share
    padded[:, 0] = False  # the self-loop is never padding
    zeros = np.where(rng.random(FEATURE_DIM) < 0.5, -0.0, 0.0)
    contributors[:, padded, :] = zeros
    targets = contributors[:, :, 0, :].copy()
    empty = rng.random(n) < empty_share
    contributors[:, empty] = 0.0
    targets[:, empty] = 0.0
    return targets, contributors


def run(layer: GraphAttention, forward, targets: np.ndarray,
        contributors: np.ndarray, upstream: np.ndarray):
    """Output, per-parameter gradients and input gradients of one pass."""
    layer.zero_grad()
    inputs = [nn.Tensor(targets, requires_grad=True),
              nn.Tensor(contributors, requires_grad=True)]
    out = forward(*inputs)
    out.backward(upstream)
    return (out.data.copy(), [p.grad.copy() for p in layer.parameters()],
            [t.grad for t in inputs])


@given(seed=st.integers(0, 2**32 - 1), graphs=st.integers(1, 64),
       heads=st.sampled_from([1, 2, 4]), head_dim=st.sampled_from([1, 3, 16]),
       slope=st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0)),
       z=st.integers(1, 5), padded_share=st.sampled_from([0.0, 0.3, 0.8]),
       empty_share=st.sampled_from([0.0, 0.2, 1.0]), stored=st.booleans())
@settings(max_examples=60, deadline=None)
def test_fused_op_matches_the_module_chain(seed, graphs, heads, head_dim, slope,
                                           z, padded_share, empty_share, stored):
    rng = np.random.default_rng(seed)
    n = TARGETS_PER_GRAPH * graphs
    layer = GraphAttention(FEATURE_DIM, heads * head_dim, negative_slope=slope,
                           num_heads=heads, rng=rng)
    if stored:
        layer.store()
    targets, contributors = features(rng, z, n, padded_share, empty_share)
    upstream = rng.normal(0.0, 1.0, (z, n, heads * head_dim))

    fused = run(layer, layer, targets, contributors, upstream)
    chain = run(layer, lambda *inputs: composed_gat_attention(layer, *inputs),
                targets, contributors, upstream)
    assert_bitwise(fused[0], chain[0])
    for fused_grad, chain_grad in zip(fused[1] + fused[2], chain[1] + chain[2]):
        assert_bitwise(fused_grad, chain_grad)
    with nn.no_grad():
        out = layer(nn.Tensor(targets), nn.Tensor(contributors))
        alpha = layer.attention_weights(nn.Tensor(targets), nn.Tensor(contributors))
        chain_alpha = composed_attention_weights(layer, nn.Tensor(targets),
                                                 nn.Tensor(contributors))
    assert not out.requires_grad and out._ctx == ()
    assert_bitwise(out.data, chain[0])
    assert_bitwise(alpha.data, chain_alpha.data)


def test_only_the_parents_that_require_a_gradient_get_one():
    rng = np.random.default_rng(3)
    layer = GraphAttention(FEATURE_DIM, 8, num_heads=2, rng=rng)
    layer.store()
    targets, contributors = features(rng, 5, 12, 0.3, 0.2)
    with layer.frozen():
        out = layer(nn.Tensor(targets), nn.Tensor(contributors, requires_grad=True))
    assert len(out._parents) == 6 and out._op == "gat_attention"
    out.sum().backward()
    assert not layer.store()[1].any()

    layer.phi1.requires_grad = False
    out = layer(nn.Tensor(targets), nn.Tensor(contributors))
    out.sum().backward()
    assert not layer.phi1.grad.any()
    assert layer.phi3.grad.any() and layer.attn_src.grad.any()


@pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan")])
def test_a_slope_outside_zero_to_one_is_refused(slope):
    with pytest.raises(ValueError, match="negative_slope"):
        GraphAttention(FEATURE_DIM, 8, negative_slope=slope)
