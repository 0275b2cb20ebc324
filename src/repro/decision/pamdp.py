"""Parameterized Action MDP formulation (paper Section IV-A).

Defines the augmented state (Eqs. 15-16), the parameterized action
(Eq. 17) and the lane-change behavior encoding.  The state transition
(Eq. 18) is realized by the simulation engine; the reward lives in
:mod:`repro.decision.reward`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from ..perception.graph import OUTPUT_SCALE
from ..perception.module import PerceptionFrame
from ..sim import constants

__all__ = ["LaneBehavior", "ParameterizedAction", "AugmentedState",
           "StateBlock", "build_augmented_state", "augmented_state_from_graph",
           "augmented_states_from_graph", "CURRENT_SHAPE", "FUTURE_SHAPE"]

#: Shape of the current-state half h^t: ego + six targets, 4 features each.
CURRENT_SHAPE = (7, 4)

#: Shape of the future-state half f^{t+1}: six targets, 4 features each.
FUTURE_SHAPE = (6, 4)


class LaneBehavior(IntEnum):
    """Discrete lateral behaviors, ordered as the paper's x_out (Eq. 25)."""

    LEFT = 0    # ll: change lane to left  (lane delta -1)
    RIGHT = 1   # lr: change lane to right (lane delta +1)
    KEEP = 2    # lk: lane keep            (lane delta 0)

    @property
    def lane_delta(self) -> int:
        return {LaneBehavior.LEFT: -1, LaneBehavior.RIGHT: 1, LaneBehavior.KEEP: 0}[self]

    @staticmethod
    def from_delta(delta: int) -> "LaneBehavior":
        return {-1: LaneBehavior.LEFT, 1: LaneBehavior.RIGHT, 0: LaneBehavior.KEEP}[delta]


@dataclass(frozen=True)
class ParameterizedAction:
    """Eq. 17: a discrete behavior paired with a continuous acceleration."""

    behavior: LaneBehavior
    accel: float

    def __post_init__(self) -> None:
        if not -constants.A_MAX <= self.accel <= constants.A_MAX:
            raise ValueError(f"acceleration {self.accel} outside [-a', a']")

    @property
    def lane_delta(self) -> int:
        return self.behavior.lane_delta


@dataclass
class AugmentedState:
    """Eq. 15-16: current states plus predicted one-step future states.

    Both halves use the perception feature scaling so network inputs are
    O(1).  ``current[0]`` is the ego reference row (Eq. 15 h_A); rows
    1..6 are the targets' relative states; ``future`` rows carry the
    predicted relative states with the phantom indicator appended.
    """

    current: np.ndarray   # (7, 4)
    future: np.ndarray    # (6, 4)
    target_mask: np.ndarray  # (6,) 1 = real observed target

    def __post_init__(self) -> None:
        if self.current.shape != CURRENT_SHAPE:
            raise ValueError(f"current half must be {CURRENT_SHAPE}, got {self.current.shape}")
        if self.future.shape != FUTURE_SHAPE:
            raise ValueError(f"future half must be {FUTURE_SHAPE}, got {self.future.shape}")

    def flat(self) -> np.ndarray:
        """Single flat vector (52,) for single-branch comparators."""
        return np.concatenate([self.current.reshape(-1), self.future.reshape(-1)])


def build_augmented_state(frame: PerceptionFrame) -> AugmentedState:
    """Assemble s_+^t from a perception frame.

    The current half reuses the graph's last history step (already the
    Eq. 7/8 vectors at time t); the future half combines the predictor's
    physical-unit outputs (rescaled to feature space) with each target's
    phantom indicator.
    """
    return augmented_state_from_graph(frame.graph, frame.prediction)


class StateBlock(NamedTuple):
    """K augmented states as stacked arrays: the batched :class:`AugmentedState`."""

    current: np.ndarray      # (K, 7, 4)
    future: np.ndarray       # (K, 6, 4)
    target_mask: np.ndarray  # (K, 6)


def augmented_states_from_graph(graph, prediction: np.ndarray) -> StateBlock:
    """Assemble K states from a stacked graph plus its ``(6K, 3)`` prediction.

    ``graph`` holds K requests' graphs stacked along the target axis
    (:func:`~repro.perception.graph.concat_graphs`), six targets each.
    Every output row is a pure row-wise function of its own graph's
    rows, so row k is bitwise what the K=1 call on graph k gives.
    """
    last = graph.target_features[-1]                 # (6K, 4)
    count = len(last) // FUTURE_SHAPE[0]
    current = np.empty((count,) + CURRENT_SHAPE)
    current[:, 0] = graph.ego_features[-1, ::FUTURE_SHAPE[0]]
    current[:, 1:] = last.reshape(count, *FUTURE_SHAPE)
    future = np.concatenate([prediction / OUTPUT_SCALE, last[:, 3:4]], axis=1)
    return StateBlock(current, future.reshape(count, *FUTURE_SHAPE),
                      graph.target_mask.reshape(count, FUTURE_SHAPE[0]).copy())


def augmented_state_from_graph(graph, prediction: np.ndarray) -> AugmentedState:
    """Assemble s_+^t from one graph plus its (6, 3) physical-unit prediction.

    The K=1 case of :func:`augmented_states_from_graph`; bit-identical
    to the :func:`build_augmented_state` path.
    """
    current, future, target_mask = augmented_states_from_graph(graph, prediction)
    return AugmentedState(current=current[0], future=future[0],
                          target_mask=target_mask[0])
