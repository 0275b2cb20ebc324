"""Experience replay buffer for the PAMDP agents.

Stores transitions as fixed-capacity numpy arrays (the paper uses a
20,000-transition buffer), allocated on the first write, and samples
uniform mini-batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .pamdp import AugmentedState, CURRENT_SHAPE, FUTURE_SHAPE
from ..seeding import resolve_rng

__all__ = ["Transition", "Batch", "TransitionBatch", "ReplayBuffer"]

#: Width of the agent-specific aux payload column (see :class:`Transition`).
AUX_WIDTH = 6


@dataclass(frozen=True)
class Transition:
    """One (s, b, a, r, s', done) tuple in PAMDP form."""

    state: AugmentedState
    behavior: int
    accel: float
    reward: float
    next_state: AugmentedState | None   # None at terminal
    done: bool
    aux: np.ndarray | None = None       # agent-specific payload, width <= 6
                                        # (P-DQN family: the full x_out; P-DDPG:
                                        # the collapsed 6-dim action vector)


@dataclass(frozen=True)
class Batch:
    """A sampled mini-batch in array form (all float64)."""

    current: np.ndarray       # (B, 7, 4)
    future: np.ndarray        # (B, 6, 4)
    behavior: np.ndarray      # (B,) int
    accel: np.ndarray         # (B,)
    reward: np.ndarray        # (B,)
    next_current: np.ndarray  # (B, 7, 4)
    next_future: np.ndarray   # (B, 6, 4)
    done: np.ndarray          # (B,) float 0/1
    aux: np.ndarray           # (B, 6) agent-specific payload

    def __len__(self) -> int:
        return len(self.reward)


@dataclass(frozen=True)
class TransitionBatch:
    """A run of transitions in storage layout (row i = i-th transition).

    This is the wire format of multi-process training: a worker packs a
    whole episode into nine arrays (cheap to pickle, one memcpy each),
    and the learner inserts slices of it with
    :meth:`ReplayBuffer.push_many` instead of paying the per-
    :class:`Transition` Python loop.  The buffer's own storage is one of
    these, ``capacity`` rows long; terminal transitions store zeros
    for the next state and the aux column is zero-padded to
    :data:`AUX_WIDTH`, byte-for-byte what :meth:`ReplayBuffer.push`
    would have written.
    """

    current: np.ndarray       # (N, 7, 4)
    future: np.ndarray        # (N, 6, 4)
    behavior: np.ndarray      # (N,) int64
    accel: np.ndarray         # (N,)
    reward: np.ndarray        # (N,)
    next_current: np.ndarray  # (N, 7, 4)
    next_future: np.ndarray   # (N, 6, 4)
    done: np.ndarray          # (N,) float 0/1
    aux: np.ndarray           # (N, 6)

    _FIELDS = ("current", "future", "behavior", "accel", "reward",
               "next_current", "next_future", "done", "aux")

    def __len__(self) -> int:
        return len(self.reward)

    def __getitem__(self, index: slice) -> "TransitionBatch":
        if not isinstance(index, slice):
            raise TypeError("TransitionBatch slices whole runs; index rows "
                            "via the field arrays")
        return TransitionBatch(**{name: getattr(self, name)[index]
                                  for name in self._FIELDS})

    @staticmethod
    def zeros(size: int) -> "TransitionBatch":
        """``size`` all-zero rows: the storage layout and dtypes."""
        return TransitionBatch(
            current=np.zeros((size, *CURRENT_SHAPE)),
            future=np.zeros((size, *FUTURE_SHAPE)),
            behavior=np.zeros(size, dtype=np.int64),
            accel=np.zeros(size),
            reward=np.zeros(size),
            next_current=np.zeros((size, *CURRENT_SHAPE)),
            next_future=np.zeros((size, *FUTURE_SHAPE)),
            done=np.zeros(size),
            aux=np.zeros((size, AUX_WIDTH)),
        )

    @staticmethod
    def from_transitions(transitions: Sequence[Transition]) -> "TransitionBatch":
        """Pack :class:`Transition` objects into storage layout."""
        batch = TransitionBatch.zeros(len(transitions))
        for row, transition in enumerate(transitions):
            batch.current[row] = transition.state.current
            batch.future[row] = transition.state.future
            batch.behavior[row] = transition.behavior
            batch.accel[row] = transition.accel
            batch.reward[row] = transition.reward
            if transition.next_state is not None:
                batch.next_current[row] = transition.next_state.current
                batch.next_future[row] = transition.next_state.future
            batch.done[row] = 1.0 if transition.done else 0.0
            if transition.aux is not None:
                payload = np.asarray(transition.aux,
                                     dtype=np.float64).reshape(-1)
                batch.aux[row, :payload.size] = payload
        return batch

    def arrays(self) -> dict[str, np.ndarray]:
        """Field name -> array mapping (views, not copies)."""
        return {name: getattr(self, name) for name in self._FIELDS}


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling.

    The storage (a :class:`TransitionBatch` of ``capacity`` rows) is
    allocated by the first write, so an agent that only acts -- in
    evaluation or behind a server -- never holds it.
    """

    def __init__(self, capacity: int = 20_000,
                 rng: np.random.Generator | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = resolve_rng(rng)
        self._storage: TransitionBatch | None = None
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    @property
    def nbytes(self) -> int:
        """Bytes of transition storage held (0 before the first write)."""
        if self._storage is None:
            return 0
        return sum(column.nbytes for column in self._storage.arrays().values())

    def _columns(self) -> TransitionBatch:
        if self._storage is None:
            self._storage = TransitionBatch.zeros(self.capacity)
        return self._storage

    def push(self, transition: Transition) -> None:
        """Insert one transition, overwriting the oldest when full."""
        index = self._cursor
        storage = self._columns()
        storage.current[index] = transition.state.current
        storage.future[index] = transition.state.future
        storage.behavior[index] = transition.behavior
        storage.accel[index] = transition.accel
        storage.reward[index] = transition.reward
        if transition.next_state is not None:
            storage.next_current[index] = transition.next_state.current
            storage.next_future[index] = transition.next_state.future
        else:
            storage.next_current[index] = 0.0
            storage.next_future[index] = 0.0
        storage.done[index] = 1.0 if transition.done else 0.0
        storage.aux[index] = 0.0
        if transition.aux is not None:
            payload = np.asarray(transition.aux, dtype=np.float64).reshape(-1)
            storage.aux[index, :payload.size] = payload
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def push_many(self,
                  transitions: "TransitionBatch | Iterable[Transition]") -> None:
        """Insert a run of transitions with vectorized slice assignment.

        Exactly equivalent to calling :meth:`push` on each transition in
        order -- same :meth:`state` bit for bit (property-tested in
        ``tests/decision/test_push_many.py``) -- but one or two slice
        copies per field instead of a Python loop per transition, which
        is what lets the learner drain whole worker episodes per queue
        message.
        """
        if not isinstance(transitions, TransitionBatch):
            transitions = TransitionBatch.from_transitions(list(transitions))
        count = len(transitions)
        if count == 0:
            return
        start = self._cursor
        final_cursor = (start + count) % self.capacity
        if count > self.capacity:
            # only the trailing window survives sequential overwriting;
            # its first surviving row would have cycled to this slot
            start = (start + count - self.capacity) % self.capacity
            transitions = transitions[count - self.capacity:]
            count = self.capacity
        head = min(count, self.capacity - start)
        storage = self._columns().arrays()
        for name, column in transitions.arrays().items():
            storage[name][start:start + head] = column[:head]
            if head < count:
                storage[name][:count - head] = column[head:]
        self._cursor = final_cursor
        self._size = min(self._size + count, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        """Uniformly sample a mini-batch (with replacement when small)."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        replace = self._size < batch_size
        indices = self.rng.choice(self._size, size=batch_size, replace=replace)
        return Batch(**{name: column[indices]
                        for name, column in self._storage.arrays().items()})

    def state(self) -> dict[str, np.ndarray]:
        """The full mutable state, as copies: every column, size, cursor.

        Keys and shapes depend on the capacity alone; storage that was
        never written reads as zeros.
        """
        if self._storage is None:
            state = TransitionBatch.zeros(self.capacity).arrays()
        else:
            state = {name: column.copy()
                     for name, column in self._storage.arrays().items()}
        state["size"] = np.array(self._size)
        state["cursor"] = np.array(self._cursor)
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore what :meth:`state` returned (same capacity).

        A state with no transitions leaves the buffer without storage,
        as a fresh one is.
        """
        self._size = int(state["size"])
        self._cursor = int(state["cursor"])
        if self._size == 0:
            self._storage = None
            return
        for name, column in self._columns().arrays().items():
            column[...] = state[name]
