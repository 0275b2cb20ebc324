"""Property-based tests for the optimizers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, Parameter, SGD, Tensor


@given(start=st.floats(-10.0, 10.0), lr=st.floats(0.01, 0.3))
@settings(max_examples=30, deadline=None)
def test_sgd_descends_quadratic(start, lr):
    """SGD on f(w) = w^2 never increases the objective (lr < 1)."""
    weight = Parameter(np.array([start]))
    optimizer = SGD([weight], lr=lr)
    previous = start ** 2
    for _ in range(20):
        optimizer.zero_grad()
        (weight ** 2).backward(np.ones(1))
        optimizer.step()
        current = float(weight.data[0] ** 2)
        assert current <= previous + 1e-9
        previous = current


@given(seed=st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_adam_first_step_magnitude_is_lr(seed):
    """Adam's bias-corrected first step has magnitude ~lr regardless of
    gradient scale -- the property that makes it robust to feature scale."""
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.01, 1000.0))
    weight = Parameter(np.array([1.0]))
    optimizer = Adam([weight], lr=0.1)
    weight.grad[...] = scale
    optimizer.step()
    assert abs(weight.data[0] - 1.0) == np.float64(0.1) or \
        abs(abs(weight.data[0] - 1.0) - 0.1) < 1e-6


@given(seed=st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_adam_converges_on_random_quadratic(seed):
    rng = np.random.default_rng(seed)
    target = rng.uniform(-3.0, 3.0, size=4)
    weight = Parameter(rng.uniform(-3.0, 3.0, size=4))
    optimizer = Adam([weight], lr=0.1)
    for _ in range(300):
        optimizer.zero_grad()
        diff = weight - Tensor(target)
        (diff * diff).sum().backward()
        optimizer.step()
    np.testing.assert_allclose(weight.data, target, atol=0.05)


def test_optimizers_skip_parameters_without_grads():
    used = Parameter(np.array([1.0]))
    unused = Parameter(np.array([5.0]))
    optimizer = Adam([used, unused], lr=0.1)
    used.grad[...] = 1.0
    optimizer.step()
    assert unused.data[0] == 5.0
    assert used.data[0] != 1.0
