"""Unit tests for the autograd tensor: forward values and exact gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, concat, no_grad


def test_add_broadcast_values_and_grads():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    out = (a + b).sum()
    out.backward()
    assert out.item() == pytest.approx(6 + 2 * (0 + 1 + 2))
    assert np.allclose(a.grad, np.ones((2, 3)))
    assert np.allclose(b.grad, [2.0, 2.0, 2.0])


def test_mul_grads():
    a = Tensor([2.0, 3.0], requires_grad=True)
    b = Tensor([5.0, 7.0], requires_grad=True)
    (a * b).sum().backward()
    assert np.allclose(a.grad, [5.0, 7.0])
    assert np.allclose(b.grad, [2.0, 3.0])


def test_sub_and_neg():
    a = Tensor([4.0], requires_grad=True)
    out = (1.0 - a) - a
    out.backward(np.ones(1))
    assert out.data[0] == pytest.approx(-7.0)
    assert a.grad[0] == pytest.approx(-2.0)


def test_div_grads():
    a = Tensor([6.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    (a / b).backward(np.ones(1))
    assert a.grad[0] == pytest.approx(1.0 / 3.0)
    assert b.grad[0] == pytest.approx(-6.0 / 9.0)


def test_pow_grad():
    a = Tensor([3.0], requires_grad=True)
    (a ** 3).backward(np.ones(1))
    assert a.grad[0] == pytest.approx(27.0)


def test_matmul_2d_grads():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
    (a @ b).sum().backward()
    assert np.allclose(a.grad, np.array([[11.0, 15.0], [11.0, 15.0]]))
    assert np.allclose(b.grad, np.array([[4.0, 4.0], [6.0, 6.0]]))


def test_matmul_vector_rhs():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    v = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    out = a @ v
    out.sum().backward()
    assert np.allclose(out.data, [-1.0, -1.0])
    assert np.allclose(a.grad, np.array([[1.0, -1.0], [1.0, -1.0]]))
    assert np.allclose(v.grad, [4.0, 6.0])


def test_tanh_relu_leaky_grads():
    x = np.array([-2.0, -0.5, 0.5, 2.0])
    t = Tensor(x, requires_grad=True)
    t.tanh().sum().backward()
    assert np.allclose(t.grad, 1 - np.tanh(x) ** 2)

    t = Tensor(x, requires_grad=True)
    t.relu().sum().backward()
    assert np.allclose(t.grad, [0.0, 0.0, 1.0, 1.0])

    t = Tensor(x, requires_grad=True)
    t.leaky_relu(0.1).sum().backward()
    assert np.allclose(t.grad, [0.1, 0.1, 1.0, 1.0])


def test_sum_axis_keepdims():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = t.sum(axis=1, keepdims=True)
    assert out.shape == (2, 1)
    out.sum().backward()
    assert np.allclose(t.grad, np.ones((2, 3)))


def test_mean_axis_grad():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    t.mean(axis=0).sum().backward()
    assert np.allclose(t.grad, np.full((2, 3), 0.5))


def test_reshape_transpose_grads():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (t.reshape(3, 2).T).sum().backward()
    assert np.allclose(t.grad, np.ones((2, 3)))


def test_getitem_grad_scatters():
    t = Tensor(np.arange(5.0), requires_grad=True)
    t[1:4].sum().backward()
    assert np.allclose(t.grad, [0, 1, 1, 1, 0])


def test_softmax_rows_sum_to_one():
    t = Tensor(np.random.default_rng(1).standard_normal((4, 7)))
    result = t.softmax(axis=-1)
    assert np.allclose(result.data.sum(axis=-1), 1.0)


def test_concat_grad_routing():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    assert np.allclose(a.grad, [[0, 1], [5, 6]])
    assert np.allclose(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_grad_accumulates_on_reuse():
    a = Tensor([2.0], requires_grad=True)
    (a * a + a).backward(np.ones(1))
    assert a.grad[0] == pytest.approx(5.0)


def test_no_grad_disables_tape():
    a = Tensor([1.0], requires_grad=True)
    with no_grad():
        out = a * 2.0
    assert not out.requires_grad


def test_backward_requires_scalar_without_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        a.backward()


def test_backward_on_non_grad_tensor_raises():
    with pytest.raises(RuntimeError):
        Tensor([1.0]).backward()


def test_gradient_shape_mismatch_raises():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        a.backward(np.ones(4))


def test_item_rejects_non_scalar():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)).item()
