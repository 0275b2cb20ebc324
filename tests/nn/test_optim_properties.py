"""Property-based tests for the Adam optimizer."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, Parameter, Tensor


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
