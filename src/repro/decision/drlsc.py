"""DRL-SC: deep RL with safety check (paper baseline, Nageshrao et al. 2019).

A plain DQN over the 9 discretized maneuvers (3 lane behaviors x 3
acceleration levels) reading only the *current* half of the state (no
enhanced-perception future states), plus a rule-based safety layer that
overrides choices violating a TTC / clearance check -- the paper's
"deep reinforcement learning model with safety check".
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..perception.phantom import TrackKind
from ..sim import constants
from .agents import PamdpAgent
from .pamdp import AugmentedState, LaneBehavior, ParameterizedAction, CURRENT_SHAPE
from .policies import Controller, DISCRETE_ACCELS
from .replay import Batch

__all__ = ["DRLSCAgent", "DRLSCController", "MANEUVERS"]

#: The 9 discrete maneuvers, indexed behavior-major.
MANEUVERS: list[tuple[LaneBehavior, float]] = [
    (behavior, accel) for behavior in LaneBehavior for accel in DISCRETE_ACCELS
]


class _DQN(nn.Module):
    """MLP over the flattened current state -> 9 action values."""

    def __init__(self, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        flat = CURRENT_SHAPE[0] * CURRENT_SHAPE[1]
        self.net = nn.MLP([flat, hidden_dim, hidden_dim, len(MANEUVERS)], rng=rng)

    def forward(self, current: nn.Tensor) -> nn.Tensor:
        batch = current.shape[0]
        return self.net(current.reshape(batch, CURRENT_SHAPE[0] * CURRENT_SHAPE[1]))


class DRLSCAgent(PamdpAgent):
    """DQN half of DRL-SC (the safety check lives in the controller)."""

    def __init__(self, hidden_dim: int = 64, lr: float = 1e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        self.q_net = _DQN(hidden_dim, self.rng)
        self.q_target = _DQN(hidden_dim, self.rng)
        self.q_target.copy_from(self.q_net)
        self.optimizer = nn.Adam(self.q_net.parameters(), lr=lr)

    def maneuver_index(self, behavior: LaneBehavior, accel: float) -> int:
        """Index of the discrete maneuver nearest to (behavior, accel)."""
        accel_index = int(np.argmin([abs(accel - level) for level in DISCRETE_ACCELS]))
        return int(behavior) * len(DISCRETE_ACCELS) + accel_index

    def act(self, state: AugmentedState, explore: bool = True) -> ParameterizedAction:
        if explore and self._explore_discrete():
            behavior = self._random_behavior()
            index = behavior * len(DISCRETE_ACCELS) + int(self.rng.integers(len(DISCRETE_ACCELS)))
        else:
            with nn.no_grad():
                values = self.q_net(nn.Tensor(state.current[None])).numpy()[0]
            index = int(np.argmax(values))
        behavior, accel = MANEUVERS[index]
        return ParameterizedAction(behavior, accel)

    def _update(self, batch: Batch) -> dict[str, float]:
        with nn.no_grad():
            next_q = self.q_target(nn.Tensor(batch.next_current)).numpy()
        targets = batch.reward + self.gamma * (1.0 - batch.done) * next_q.max(axis=1)

        indices = np.array([
            int(b) * len(DISCRETE_ACCELS)
            + int(np.argmin([abs(a - level) for level in DISCRETE_ACCELS]))
            for b, a in zip(batch.behavior, batch.accel)
        ])
        one_hot = np.eye(len(MANEUVERS))[indices]

        self.optimizer.zero_grad()
        q_all = self.q_net(nn.Tensor(batch.current))
        q_taken = (q_all * nn.Tensor(one_hot)).sum(axis=1)
        diff = q_taken - nn.Tensor(targets)
        loss = (diff * diff).mean() * 0.5
        loss.backward()
        nn.clip_grad_norm(self.optimizer.parameters, 10.0)
        self.optimizer.step()
        self.q_target.soft_update_from(self.q_net, self.tau)
        return {"q_loss": loss.item(), "x_loss": 0.0}


class DRLSCController(Controller):
    """DQN choice + rule-based safety override.

    The safety check vetoes (1) lane changes into an occupied or
    off-road lane and (2) accelerations that push TTC below a threshold;
    vetoed actions degrade to lane-keep with a comfortable brake.
    """

    name = "DRL-SC"

    def __init__(self, agent: DRLSCAgent, ttc_threshold: float = 3.0,
                 min_side_gap: float = 8.0) -> None:
        self.agent = agent
        self.ttc_threshold = ttc_threshold
        self.min_side_gap = min_side_gap

    def select_action(self, env, state: AugmentedState) -> ParameterizedAction:
        action = self.agent.act(state, explore=False)
        return self.safety_check(env, action)

    def safety_check(self, env, action: ParameterizedAction) -> ParameterizedAction:
        """Override unsafe picks (used during both training and testing)."""
        av = env.av
        scene = env.frame.scene
        behavior, accel = action.behavior, action.accel

        if behavior is not LaneBehavior.KEEP:
            lane = av.lane + behavior.lane_delta
            if not env.road.is_valid_lane(lane) or not self._side_clear(env, scene, behavior):
                behavior = LaneBehavior.KEEP

        leader_area = 2 if behavior is LaneBehavior.KEEP else (1 if behavior is LaneBehavior.LEFT else 3)
        target = scene.node(leader_area)
        if target.kind is not TrackKind.ZERO:
            gap = target.lon - constants.VEHICLE_LENGTH - av.lon
            closing = (av.v + accel * constants.DT) - target.v
            if closing > 0.0 and gap / max(closing, 1e-6) < self.ttc_threshold:
                accel = -min(constants.A_MAX, 2.0)
        return ParameterizedAction(behavior, float(accel))

    def _side_clear(self, env, scene, behavior: LaneBehavior) -> bool:
        leader_area, follower_area = (1, 4) if behavior is LaneBehavior.LEFT else (3, 6)
        av = env.av
        for area in (leader_area, follower_area):
            target = scene.node(area)
            if target.kind is TrackKind.ZERO:
                continue
            if abs(target.lon - av.lon) < self.min_side_gap:
                return False
        return True
