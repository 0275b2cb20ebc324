"""Deep RL agents solving the PAMDP (paper Sections IV-B, V-D).

Four agents share the replay/target-network machinery:

* :class:`PDQNAgent` -- the P-DQN optimization paradigm (Eqs. 19-23);
  instantiated with branched networks it *is* the paper's **BP-DQN**,
  with single-branch networks it is the vanilla **P-DQN** comparator.
* :class:`PQPAgent` -- P-QP (Masson et al.): the same two networks but
  trained in *alternating* phases, so the action and action-parameter
  policies never share an update (the shortcoming the paper cites).
* :class:`PDDPGAgent` -- P-DDPG (Hausknecht & Stone): the parameterized
  action space collapsed into one continuous vector optimized by DDPG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..sim import constants
from ..seeding import resolve_rng
from .networks import (BranchedQNetwork, BranchedXNetwork, NUM_BEHAVIORS,
                       VanillaQNetwork, VanillaXNetwork)
from .pamdp import (AugmentedState, LaneBehavior, ParameterizedAction,
                    StateBlock)
from .replay import Batch, ReplayBuffer, Transition

__all__ = ["EpsilonSchedule", "PamdpAgent", "PDQNAgent", "PQPAgent", "PDDPGAgent"]

#: Behaviors indexed by their x_out position, for decoding argmax rows.
_BEHAVIORS = tuple(LaneBehavior)


@dataclass
class EpsilonSchedule:
    """Linear epsilon decay for discrete exploration."""

    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 5_000

    def value(self, step: int) -> float:
        if step >= self.decay_steps:
            return self.end
        fraction = step / self.decay_steps
        return self.start + fraction * (self.end - self.start)


class PamdpAgent:
    """Base class: replay, exploration bookkeeping, action plumbing."""

    def __init__(self, gamma: float = 0.9, batch_size: int = 64,
                 buffer_capacity: int = 20_000, tau: float = 0.01,
                 warmup: int = 200, noise_scale: float = 1.0,
                 epsilon: EpsilonSchedule | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.gamma = gamma
        self.batch_size = batch_size
        self.tau = tau
        self.warmup = warmup
        self.noise_scale = noise_scale
        self.epsilon = epsilon or EpsilonSchedule()
        self.rng = resolve_rng(rng)
        self.buffer = ReplayBuffer(buffer_capacity, rng=self.rng)
        self.total_steps = 0

    # -- interface ------------------------------------------------------
    def act(self, state: AugmentedState, explore: bool = True) -> ParameterizedAction:
        raise NotImplementedError

    def observe(self, transition: Transition) -> None:
        """Store a transition and advance the exploration clock."""
        self.buffer.push(transition)
        self.total_steps += 1

    def learn(self) -> dict[str, float] | None:
        """One optimization step; returns losses or None while warming up."""
        if len(self.buffer) < max(self.warmup, self.batch_size):
            return None
        return self._update(self.buffer.sample(self.batch_size))

    def _update(self, batch: Batch) -> dict[str, float]:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------
    def _noise(self) -> float:
        decay = max(0.1, 1.0 - self.total_steps / max(self.epsilon.decay_steps, 1))
        return float(self.rng.normal(0.0, self.noise_scale * decay))

    def _explore_discrete(self) -> bool:
        return self.rng.random() < self.epsilon.value(self.total_steps)

    #: Exploration prior over [ll, lr, lk]: random lane changes at every
    #: 0.5 s step are almost always fatal in dense traffic, so discrete
    #: exploration is biased toward lane-keeping (a standard practice in
    #: autonomous-driving RL); the argmax policy is unaffected.
    EXPLORE_BEHAVIOR_PROBS = (0.1, 0.1, 0.8)

    def _random_behavior(self) -> int:
        return int(self.rng.choice(NUM_BEHAVIORS, p=self.EXPLORE_BEHAVIOR_PROBS))


class PDQNAgent(PamdpAgent):
    """P-DQN optimization paradigm (Eqs. 19-23); BP-DQN when branched.

    Parameters
    ----------
    branched:
        True builds the paper's BP-DQN networks, False the vanilla
        single-branch P-DQN comparator.
    """

    def __init__(self, branched: bool = True, hidden_dim: int = 64,
                 lr_q: float = 1e-3, lr_x: float = 1e-4, **kwargs) -> None:
        super().__init__(**kwargs)
        rng = self.rng
        x_cls = BranchedXNetwork if branched else VanillaXNetwork
        q_cls = BranchedQNetwork if branched else VanillaQNetwork
        self.branched = branched
        self.x_net = x_cls(hidden_dim, rng=rng)
        self.q_net = q_cls(hidden_dim, rng=rng)
        self.x_target = x_cls(hidden_dim, rng=rng)
        self.q_target = q_cls(hidden_dim, rng=rng)
        self.x_target.copy_from(self.x_net)
        self.q_target.copy_from(self.q_net)
        self.opt_q = nn.Adam(self.q_net.parameters(), lr=lr_q)
        self.opt_x = nn.Adam(self.x_net.parameters(), lr=lr_x)

    # -- acting ---------------------------------------------------------
    def _greedy_forward(self, current: np.ndarray,
                        future: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(accels, q_values), each (K, 3), for K stacked states; no tape."""
        with nn.no_grad():
            current = nn.Tensor(current)
            future = nn.Tensor(future)
            accels = self.x_net(current, future)
            q_values = self.q_net(current, future, accels)
        return accels.numpy(), q_values.numpy()

    def action_values(self, state: AugmentedState) -> tuple[np.ndarray, np.ndarray]:
        """Return (accels, q_values), each (3,), without exploration."""
        accels, q_values = self._greedy_forward(state.current[None],
                                                state.future[None])
        return accels[0], q_values[0]

    def act(self, state: AugmentedState, explore: bool = True) -> ParameterizedAction:
        accels, q_values = self.action_values(state)
        if explore and self._explore_discrete():
            behavior = self._random_behavior()
        else:
            behavior = int(np.argmax(q_values))
        accel = float(accels[behavior])
        if explore:
            accel += self._noise()
        accel = float(np.clip(accel, -constants.A_MAX, constants.A_MAX))
        self._last_accels = accels.copy()
        self._last_accels[behavior] = accel
        return ParameterizedAction(LaneBehavior(behavior), accel)

    def act_batch(self, states: list[AugmentedState] | StateBlock,
                  explore: bool = False) -> list[ParameterizedAction]:
        """Greedy actions for many states in one network forward.

        Batching exploits the stacked matmuls of ``repro.nn``: K states
        (fleet AVs, served requests) cost one forward of batch K instead
        of K forwards of batch 1.  ``states`` is a list of states or one
        :class:`~repro.decision.pamdp.StateBlock`; either way the decode
        is one ``argmax``, one gather and one clip over the K rows.
        Exploration draws are per-state sequential RNG, so
        ``explore=True`` falls back to the scalar :meth:`act` loop
        (which preserves the draw order) -- this helper targets greedy
        evaluation.  Does not record ``last_aux``.
        """
        if explore:
            return [self.act(state, explore=True) for state in states]
        if isinstance(states, StateBlock):
            current, future = states.current, states.future
        elif states:
            current = np.stack([state.current for state in states])
            future = np.stack([state.future for state in states])
        else:
            return []
        accel_rows, q_values = self._greedy_forward(current, future)
        behaviors = np.argmax(q_values, axis=1)
        accels = np.clip(accel_rows[np.arange(len(behaviors)), behaviors],
                         -constants.A_MAX, constants.A_MAX)
        return [ParameterizedAction(_BEHAVIORS[behavior], accel)
                for behavior, accel in zip(behaviors.tolist(), accels.tolist())]

    def last_aux(self) -> np.ndarray:
        """The full x_out executed at the last act() (for the replay aux)."""
        return getattr(self, "_last_accels", np.zeros(NUM_BEHAVIORS))

    # -- learning -------------------------------------------------------
    def _td_targets(self, batch: Batch) -> np.ndarray:
        """Bellman targets (Eq. 22) with the Double-DQN decoupling.

        The behavior that maximizes the next-state value is selected by
        the *online* Q network and evaluated by the *target* network --
        the standard correction for the max-operator's overestimation
        bias, which in this domain systematically over-values risky
        tailgating/lane-change actions.
        """
        with nn.no_grad():
            next_current = nn.Tensor(batch.next_current)
            next_future = nn.Tensor(batch.next_future)
            next_accels = self.x_target(next_current, next_future)
            online_q = self.q_net(next_current, next_future, next_accels).numpy()
            target_q = self.q_target(next_current, next_future, next_accels).numpy()
        chosen = online_q.argmax(axis=1)
        best = target_q[np.arange(len(chosen)), chosen]
        return batch.reward + self.gamma * (1.0 - batch.done) * best

    def _q_loss(self, batch: Batch) -> nn.Tensor:
        targets = self._td_targets(batch)
        current = nn.Tensor(batch.current)
        future = nn.Tensor(batch.future)
        executed = nn.Tensor(batch.aux[:, :NUM_BEHAVIORS])
        q_all = self.q_net(current, future, executed)            # (B, 3)
        one_hot = np.eye(NUM_BEHAVIORS)[batch.behavior]
        q_taken = (q_all * nn.Tensor(one_hot)).sum(axis=1)
        diff = q_taken - nn.Tensor(targets)
        return (diff * diff).mean() * 0.5                        # Eq. 22

    def _x_loss(self, batch: Batch) -> nn.Tensor:
        current = nn.Tensor(batch.current)
        future = nn.Tensor(batch.future)
        accels = self.x_net(current, future)
        q_all = self.q_net(current, future, accels)
        return -q_all.sum(axis=1).mean()                         # Eq. 23

    def _q_step(self, batch: Batch) -> float:
        """One Adam step of the Q-network on the TD loss (Eq. 22)."""
        self.opt_q.zero_grad()
        self.opt_x.zero_grad()
        q_loss = self._q_loss(batch)
        q_loss.backward()
        nn.clip_grad_norm(self.opt_q.parameters, 10.0)
        self.opt_q.step()
        return q_loss.item()

    def _x_step(self, batch: Batch) -> float:
        """One Adam step of the x-network on Eq. 23, the Q-network frozen.

        The loss backpropagates through Q into x, but Q's own gradients
        would be discarded, so the frozen critic skips computing them.
        """
        self.opt_q.zero_grad()
        self.opt_x.zero_grad()
        with self.q_net.frozen():
            x_loss = self._x_loss(batch)
            x_loss.backward()
        nn.clip_grad_norm(self.opt_x.parameters, 10.0)
        self.opt_x.step()
        return x_loss.item()

    def _update(self, batch: Batch) -> dict[str, float]:
        q_loss = self._q_step(batch)
        x_loss = self._x_step(batch)
        self.q_target.soft_update_from(self.q_net, self.tau)
        self.x_target.soft_update_from(self.x_net, self.tau)
        return {"q_loss": q_loss, "x_loss": x_loss}


class PQPAgent(PDQNAgent):
    """P-QP: alternate between Q-learning and parameter optimization.

    Identical networks to vanilla P-DQN, but updates run in long
    alternating phases so neither policy benefits from the other's
    fresh gradients -- the information-sharing gap the paper points out.
    """

    def __init__(self, phase_length: int = 200, **kwargs) -> None:
        kwargs.setdefault("branched", False)
        super().__init__(**kwargs)
        self.phase_length = phase_length
        self._updates = 0

    def _update(self, batch: Batch) -> dict[str, float]:
        phase_q = (self._updates // self.phase_length) % 2 == 0
        self._updates += 1
        losses = {"q_loss": 0.0, "x_loss": 0.0}
        if phase_q:
            losses["q_loss"] = self._q_step(batch)
            self.q_target.soft_update_from(self.q_net, self.tau)
        else:
            losses["x_loss"] = self._x_step(batch)
            self.x_target.soft_update_from(self.x_net, self.tau)
        return losses


class _DDPGActor(nn.Module):
    """Actor emitting the collapsed 6-dim action (3 logits + 3 accels)."""

    def __init__(self, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        from .networks import _FLAT_STATE, _flatten_state  # shared helpers
        self._flatten = _flatten_state
        self.net = nn.MLP([_FLAT_STATE, hidden_dim, hidden_dim, 2 * NUM_BEHAVIORS],
                          rng=rng)

    def forward(self, current: nn.Tensor, future: nn.Tensor) -> nn.Tensor:
        return self.net(self._flatten(current, future)).tanh()


class _DDPGCritic(nn.Module):
    """Critic scoring (state, collapsed action) -> scalar Q."""

    def __init__(self, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        from .networks import _FLAT_STATE, _flatten_state
        self._flatten = _flatten_state
        self.net = nn.MLP([_FLAT_STATE + 2 * NUM_BEHAVIORS, hidden_dim, hidden_dim, 1],
                          rng=rng)

    def forward(self, current: nn.Tensor, future: nn.Tensor,
                action: nn.Tensor) -> nn.Tensor:
        flat = self._flatten(current, future)
        return self.net(nn.concat([flat, action], axis=1))


class PDDPGAgent(PamdpAgent):
    """P-DDPG: DDPG on the collapsed continuous action space.

    The actor emits ``[w_ll, w_lr, w_lk, a_ll, a_lr, a_lk]`` in
    [-1, 1]; the executed behavior is the argmax of the first three, and
    the executed acceleration the matching entry of the last three
    scaled by a'.  The critic never learns which parameter pairs with
    which behavior -- the structural flaw the paper cites.
    """

    def __init__(self, hidden_dim: int = 64, lr_actor: float = 1e-4,
                 lr_critic: float = 1e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        rng = self.rng
        self.actor = _DDPGActor(hidden_dim, rng)
        self.critic = _DDPGCritic(hidden_dim, rng)
        self.actor_target = _DDPGActor(hidden_dim, rng)
        self.critic_target = _DDPGCritic(hidden_dim, rng)
        self.actor_target.copy_from(self.actor)
        self.critic_target.copy_from(self.critic)
        self.opt_actor = nn.Adam(self.actor.parameters(), lr=lr_actor)
        self.opt_critic = nn.Adam(self.critic.parameters(), lr=lr_critic)

    def act(self, state: AugmentedState, explore: bool = True) -> ParameterizedAction:
        with nn.no_grad():
            raw = self.actor(nn.Tensor(state.current[None]),
                             nn.Tensor(state.future[None])).numpy()[0]
        if explore:
            raw = raw + self.rng.normal(0.0, 0.3 * self.noise_scale, size=raw.shape)
            raw = np.clip(raw, -1.0, 1.0)
        if explore and self._explore_discrete():
            behavior = self._random_behavior()
        else:
            behavior = int(np.argmax(raw[:NUM_BEHAVIORS]))
        accel = float(raw[NUM_BEHAVIORS + behavior] * constants.A_MAX)
        self._last_action = raw
        return ParameterizedAction(LaneBehavior(behavior), accel)

    def last_aux(self) -> np.ndarray:
        return getattr(self, "_last_action", np.zeros(2 * NUM_BEHAVIORS))

    def _update(self, batch: Batch) -> dict[str, float]:
        current = nn.Tensor(batch.current)
        future = nn.Tensor(batch.future)
        action = nn.Tensor(batch.aux)

        with nn.no_grad():
            next_current = nn.Tensor(batch.next_current)
            next_future = nn.Tensor(batch.next_future)
            next_action = self.actor_target(next_current, next_future)
            next_q = self.critic_target(next_current, next_future, next_action).numpy()[:, 0]
        targets = batch.reward + self.gamma * (1.0 - batch.done) * next_q

        self.opt_critic.zero_grad()
        self.opt_actor.zero_grad()
        q_values = self.critic(current, future, action)
        diff = q_values.reshape(len(batch)) - nn.Tensor(targets)
        critic_loss = (diff * diff).mean() * 0.5
        critic_loss.backward()
        nn.clip_grad_norm(self.opt_critic.parameters, 10.0)
        self.opt_critic.step()

        self.opt_critic.zero_grad()
        self.opt_actor.zero_grad()
        with self.critic.frozen():
            actor_action = self.actor(current, future)
            actor_loss = -self.critic(current, future, actor_action).mean()
            actor_loss.backward()
        nn.clip_grad_norm(self.opt_actor.parameters, 10.0)
        self.opt_actor.step()

        self.critic_target.soft_update_from(self.critic, self.tau)
        self.actor_target.soft_update_from(self.actor, self.tau)
        return {"q_loss": critic_loss.item(), "x_loss": actor_loss.item()}
