"""Property-based gradient checks: autograd vs central finite differences.

These tests are the correctness anchor of the whole NN substrate -- the
paper's models are only as sound as these gradients.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, LSTMCell, Linear, concat


def numeric_grad(func, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued ``func``."""
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = func(value)
        flat[index] = original - eps
        lower = func(value)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def check(op, value: np.ndarray, tolerance: float = 1e-5) -> None:
    tensor = Tensor(value.copy(), requires_grad=True)
    out = op(tensor)
    out.backward()
    expected = numeric_grad(lambda arr: op(Tensor(arr)).item(), value.copy())
    np.testing.assert_allclose(tensor.grad, expected, rtol=tolerance, atol=tolerance)


small_arrays = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).map(lambda m: (n, m))
)


@st.composite
def random_matrix(draw, low=-2.0, high=2.0):
    shape = draw(small_arrays)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=shape)


@given(random_matrix())
@settings(max_examples=25, deadline=None)
def test_tanh_gradcheck(value):
    check(lambda t: t.tanh().sum(), value)


@given(random_matrix())
@settings(max_examples=25, deadline=None)
def test_softmax_weighted_gradcheck(value):
    weights = np.arange(value.size, dtype=np.float64).reshape(value.shape)
    check(lambda t: (t.softmax(axis=-1) * Tensor(weights)).sum(), value)


@given(random_matrix())
@settings(max_examples=25, deadline=None)
def test_mean_axis_gradcheck(value):
    check(lambda t: (t.mean(axis=0) ** 2).sum(), value)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_matmul_chain_gradcheck(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def op(t):
        return ((t @ Tensor(b)).tanh() ** 2).sum()

    check(op, a)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_linear_layer_weight_gradcheck(seed):
    rng = np.random.default_rng(seed)
    layer = Linear(3, 2, rng=rng)
    x = Tensor(rng.standard_normal((4, 3)))

    layer.zero_grad()
    layer(x).sum().backward()
    analytic = layer.weight.grad.copy()

    weight = layer.weight.data

    def scalar(w):
        layer.weight.data = w
        return layer(x).data.sum()

    expected = numeric_grad(scalar, weight.copy())
    layer.weight.data = weight
    np.testing.assert_allclose(analytic, expected, rtol=1e-5, atol=1e-5)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_lstm_cell_input_gradcheck(seed):
    rng = np.random.default_rng(seed)
    cell = LSTMCell(3, 4, rng=rng)
    h0, c0 = cell.initial_state(2)
    value = rng.standard_normal((2, 3))

    def op(t):
        hidden, _ = cell(t, h0, c0)
        return (hidden ** 2).sum()

    check(op, value, tolerance=1e-4)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_concat_gradcheck(seed):
    rng = np.random.default_rng(seed)
    other = rng.standard_normal((2, 3))
    value = rng.standard_normal((2, 2))

    def op(t):
        return (concat([t, Tensor(other)], axis=1).tanh()).sum()

    check(op, value)
