"""Property-based invariants of the VJP tape engine.

Complements the finite-difference gradchecks with structural laws the
engine must uphold for *any* input:

- gradients always come back with exactly the input's shape, even when
  forward broadcasting stretched the operand (``_unbroadcast`` law);
- the tape stays float64 end to end (checkpoint + gradcheck contract);
- a consumed graph cannot be replayed: ``backward()`` twice raises
  ``RuntimeError`` (the PR 3 sanitizer ``tape-leak`` check, now
  enforced unconditionally by the engine itself);
- gradient values are deterministic across repeated backward passes,
  and a copied gradient keeps the memory order of the value it copies
  (BLAS rounds differently on a transposed layout);
- backward keeps no gradient buffer alive once the graph is dropped.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn import Tensor


@st.composite
def broadcast_pair(draw):
    """A full-shape array and a compatible squeezed/reduced companion.

    The companion replaces a suffix of dims with 1 (or drops leading
    dims), so the op result keeps the full shape -- gradients for the
    companion must be reduced back down by ``_unbroadcast``.
    """
    rank = draw(st.integers(min_value=1, max_value=3))
    full_shape = tuple(draw(st.integers(min_value=1, max_value=4))
                       for _ in range(rank))
    keep = draw(st.integers(min_value=0, max_value=rank))
    other_shape = tuple(
        dim if draw(st.booleans()) else 1
        for dim in full_shape[rank - keep:])
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return (rng.uniform(-2.0, 2.0, size=full_shape),
            rng.uniform(0.5, 2.0, size=other_shape))


@given(broadcast_pair(), st.sampled_from(["add", "sub", "mul", "div"]))
@settings(max_examples=60, deadline=None)
def test_broadcast_gradients_match_input_shapes(pair, op_name):
    full, other = pair
    a = Tensor(full, requires_grad=True)
    b = Tensor(other, requires_grad=True)
    out = {"add": lambda: a + b, "sub": lambda: a - b,
           "mul": lambda: a * b, "div": lambda: a / b}[op_name]()
    assert out.shape == full.shape
    out.sum().backward()
    assert a.grad is not None and a.grad.shape == full.shape
    assert b.grad is not None and b.grad.shape == other.shape


@given(broadcast_pair())
@settings(max_examples=40, deadline=None)
def test_dtype_stays_float64_through_op_chains(pair):
    full, other = pair
    a = Tensor(full, requires_grad=True)
    b = Tensor(other, requires_grad=True)
    out = ((a * b + a).tanh().relu() / 2.0).sum()
    assert out.data.dtype == np.float64
    out.backward()
    assert a.grad.dtype == np.float64
    assert b.grad.dtype == np.float64


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_backward_twice_raises(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    loss = (a * a).sum()
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_backward_on_shared_subgraph_replay_raises():
    """Replaying a *shared piece* of an already-consumed graph raises too."""
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    shared = a * 2.0
    first = shared.sum()
    second = (shared * 3.0).sum()
    first.backward()
    with pytest.raises(RuntimeError):
        second.backward()


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_gradients_deterministic_across_repeated_backward(seed):
    """Bitwise-equal grads on repeat runs of the same graph."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(4, 3))
    weight = rng.normal(size=(5, 3))

    def run():
        x = Tensor(data.copy(), requires_grad=True)
        w = Tensor(weight.copy(), requires_grad=True)
        out = nn.linear(x, w).tanh().softmax(axis=-1)
        (out * out).mean().backward()
        return x.grad.copy(), w.grad.copy()

    first_x, first_w = run()
    for _ in range(3):
        again_x, again_w = run()
        assert np.array_equal(first_x, again_x)
        assert np.array_equal(first_w, again_w)


def test_a_copied_gradient_keeps_the_value_memory_order():
    """A transpose's VJP returns a Fortran-ordered view; the gradient
    stored from it is a whole copy with the view's strides."""
    a = Tensor(np.ones((3, 5)), requires_grad=True)
    weights = np.arange(15.0).reshape(5, 3)
    (a.transpose() * Tensor(weights)).sum().backward()
    value = weights.T                            # (3, 5), Fortran order
    assert np.array_equal(a.grad, value)
    assert a.grad.strides == value.strides and a.grad.base is None


def test_backward_retains_no_gradient_buffers():
    """Once every tensor of a graph is dropped, nothing backward made
    stays allocated (shapes no other test uses, so no earlier run can
    have left buffers of them behind)."""
    rng = np.random.default_rng(0)
    x_data = rng.normal(size=(37, 23))
    w_data = rng.normal(size=(29, 23))

    def run():
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        (nn.linear(x, w).tanh() ** 2).sum().backward()

    tracemalloc.start()
    try:
        for _ in range(3):
            run()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4096


def test_no_grad_produces_leaf_outputs():
    with nn.no_grad():
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (a * 3.0).sum()
    assert not out.requires_grad
    with pytest.raises(RuntimeError):
        out.backward()
