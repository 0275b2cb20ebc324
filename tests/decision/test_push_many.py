"""``ReplayBuffer.push_many`` must be bit-identical to repeated ``push``.

The vectorized insert is the learner-side fast path of multi-process
training (whole worker episodes land per queue message), so any
divergence from the sequential semantics -- row placement, cursor
arithmetic, overwrite order when a run exceeds the capacity -- would
silently change which transitions get sampled.  These are
property tests: random pre-fills, random run lengths (including empty
runs and runs longer than the whole buffer), asserted as exact array
equality over every field of ``ReplayBuffer.state()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.decision.pamdp import AugmentedState, CURRENT_SHAPE, FUTURE_SHAPE
from repro.decision.replay import ReplayBuffer, Transition, TransitionBatch
from repro.seeding import default_generator

def make_transition(rng: np.random.Generator, terminal: bool,
                    with_aux: bool) -> Transition:
    def state() -> AugmentedState:
        return AugmentedState(current=rng.normal(size=CURRENT_SHAPE),
                              future=rng.normal(size=FUTURE_SHAPE),
                              target_mask=np.ones(FUTURE_SHAPE[0]))

    return Transition(
        state=state(),
        behavior=int(rng.integers(0, 3)),
        accel=float(rng.normal()),
        reward=float(rng.normal()),
        next_state=None if terminal else state(),
        done=terminal,
        aux=rng.normal(size=3) if with_aux else None,
    )


def make_run(seed: int, count: int) -> list[Transition]:
    rng = default_generator(seed)
    return [make_transition(rng, terminal=bool(rng.random() < 0.2),
                            with_aux=bool(rng.random() < 0.7))
            for _ in range(count)]


def assert_same_state(lhs: ReplayBuffer, rhs: ReplayBuffer) -> None:
    lhs_state, rhs_state = lhs.state(), rhs.state()
    assert lhs_state.keys() == rhs_state.keys()
    for field, array in lhs_state.items():
        np.testing.assert_array_equal(array, rhs_state[field], err_msg=field)


@settings(max_examples=40, deadline=None)
@given(capacity=st.integers(1, 24), prefill=st.integers(0, 40),
       count=st.integers(0, 60), seed=st.integers(0, 10_000))
def test_push_many_matches_sequential_push(capacity, prefill, count, seed):
    sequential = ReplayBuffer(capacity, rng=default_generator(0))
    vectorized = ReplayBuffer(capacity, rng=default_generator(0))
    for transition in make_run(seed + 1, prefill):
        sequential.push(transition)
        vectorized.push(transition)

    run = make_run(seed, count)
    for transition in run:
        sequential.push(transition)
    vectorized.push_many(run)
    assert_same_state(sequential, vectorized)


@settings(max_examples=20, deadline=None)
@given(capacity=st.integers(1, 16), count=st.integers(0, 40),
       splits=st.lists(st.integers(0, 40), max_size=3),
       seed=st.integers(0, 10_000))
def test_chunked_push_many_matches_one_shot(capacity, count, splits, seed):
    # consuming an episode in learn_every-sized chunks (the learner's
    # cadence) must agree with inserting it whole
    run = make_run(seed, count)
    whole = ReplayBuffer(capacity, rng=default_generator(0))
    whole.push_many(run)
    chunked = ReplayBuffer(capacity, rng=default_generator(0))
    cuts = sorted(min(cut, count) for cut in splits)
    previous = 0
    for cut in cuts + [count]:
        chunked.push_many(run[previous:cut])
        previous = cut
    assert_same_state(whole, chunked)


def test_push_many_accepts_transition_batch_slices():
    run = make_run(3, 12)
    batch = TransitionBatch.from_transitions(run)
    by_batch = ReplayBuffer(8, rng=default_generator(0))
    by_batch.push_many(batch[:5])
    by_batch.push_many(batch[5:])
    by_list = ReplayBuffer(8, rng=default_generator(0))
    for transition in run:
        by_list.push(transition)
    assert_same_state(by_list, by_batch)


def test_run_longer_than_capacity_keeps_trailing_window():
    capacity = 5
    run = make_run(11, 13)
    sequential = ReplayBuffer(capacity, rng=default_generator(0))
    for transition in run:
        sequential.push(transition)
    vectorized = ReplayBuffer(capacity, rng=default_generator(0))
    vectorized.push_many(run)
    assert_same_state(sequential, vectorized)
    assert len(vectorized) == capacity
    assert vectorized.state()["cursor"] == 13 % capacity


def test_empty_run_is_a_no_op():
    buffer = ReplayBuffer(4, rng=default_generator(0))
    buffer.push_many([])
    assert len(buffer) == 0 and buffer.state()["cursor"] == 0
    assert buffer.nbytes == 0


def test_transition_batch_rejects_integer_indexing():
    batch = TransitionBatch.from_transitions(make_run(0, 3))
    with pytest.raises(TypeError):
        batch[0]
