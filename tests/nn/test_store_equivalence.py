"""The flat parameter store reproduces the per-parameter loops it replaced.

``Adam.step`` and ``Module.soft_update_from`` each make one vector
expression over a module's store; the loops in
``tests/oracles/nn.py`` update one parameter array at a time.  Both
must give the same bits on random module trees, including parameters
whose gradient is zero at every step (``None`` for the loops, which
skip them).
"""

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, Module, Parameter
from tests.oracles.nn import (LegacyTensor, PerParameterAdam,
                              per_parameter_soft_update)


def random_tree(rng: np.random.Generator, depth: int = 0) -> Module:
    """A module with random parameter shapes (0-d included), child
    modules and a list of modules, nested up to three levels."""
    tree = Module()
    for index in range(int(rng.integers(0, 3))):
        shape = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(0, 3)))
        setattr(tree, f"p{index}", Parameter(rng.standard_normal(shape)))
    if depth < 2:
        for index in range(int(rng.integers(0, 3))):
            setattr(tree, f"child{index}", random_tree(rng, depth + 1))
        if rng.random() < 0.5:
            tree.blocks = [random_tree(rng, depth + 1)
                           for _ in range(int(rng.integers(1, 3)))]
    if depth == 0 and not tree.parameters():
        tree.last = Parameter(rng.standard_normal(2))
    return tree


def mirror(tree: Module) -> list[LegacyTensor]:
    return [LegacyTensor(parameter.data.copy()) for parameter in tree.parameters()]


def feed_gradients(rng, optimizer, oracle, dead) -> None:
    """Random gradients into both sides; dead parameters get none."""
    optimizer.zero_grad()
    for parameter, twin, is_dead in zip(optimizer.parameters, oracle, dead):
        twin.grad = None
        if not is_dead:
            grad = rng.standard_normal(parameter.data.shape)
            parameter.grad[...] = grad
            twin.grad = grad.copy()


def assert_same(parameters, oracle) -> None:
    for parameter, twin in zip(parameters, oracle):
        assert np.array_equal(parameter.data, twin.data)


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_flat_optimizers_match_per_parameter_loops(seed, steps):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    oracle = mirror(tree)
    dead = rng.random(len(oracle)) < 0.3
    optimizer = Adam(tree.parameters(), lr=0.05)
    loop = PerParameterAdam(oracle, lr=0.05)
    for _ in range(steps):
        feed_gradients(rng, optimizer, oracle, dead)
        optimizer.step()
        loop.step()
        assert_same(tree.parameters(), oracle)
    assert np.array_equal(optimizer._m, np.concatenate([m.reshape(-1) for m in loop._m]))
    assert np.array_equal(optimizer._v, np.concatenate([v.reshape(-1) for v in loop._v]))


@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(0.0, 1.0),
       steps=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_flat_soft_update_matches_per_parameter_loop(seed, tau, steps):
    rng = np.random.default_rng(seed)
    online = random_tree(rng)
    target = copy.deepcopy(online)
    for parameter in target.parameters():
        parameter.data[...] = rng.standard_normal(parameter.data.shape)
    loop_online, loop_target = mirror(online), mirror(target)
    optimizer = Adam(online.parameters(), lr=0.05)
    loop = PerParameterAdam(loop_online, lr=0.05)
    dead = rng.random(len(loop_online)) < 0.3
    for _ in range(steps):
        feed_gradients(rng, optimizer, loop_online, dead)
        optimizer.step()
        loop.step()
        target.soft_update_from(online, tau)
        per_parameter_soft_update(loop_target, loop_online, tau)
        assert_same(target.parameters(), loop_target)
