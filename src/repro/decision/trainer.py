"""Episode-level training loop for the PAMDP agents.

Drives a :class:`~repro.decision.environment.DrivingEnv` with an agent,
stores transitions, and performs one optimization step per environment
step (paper: Adam, 4,000 episodes, batch 64; episode counts are
configurable because this reproduction trains on CPU).

One driver, :func:`run_training`, owns the run state of both trainers
(log, checkpoints, resume, NaN rollback); they differ only in where
episodes come from.  With a ``checkpoint_dir`` the run is crash-safe:
the full mutable training state is written atomically via
:mod:`repro.faults.checkpoint`, a killed process resumes to the *same*
learning curve (under the same recorded schedule only), and a
non-finite loss or reward rolls back to the last good checkpoint
instead of silently corrupting the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ..faults.checkpoint import (check_schedule, load_checkpoint,
                                 save_checkpoint)
from .agents import PamdpAgent
from .environment import DrivingEnv
from .pamdp import ParameterizedAction
from .replay import Transition

__all__ = ["RLTrainingLog", "train_agent", "run_training", "NaNLossError",
           "CHECKPOINT_NAME", "EpisodeRunner", "EpisodeOutcome",
           "LearningSink"]

#: Optional hook rewriting actions before execution (DRL-SC safety check).
ActionFilter = Callable[[DrivingEnv, ParameterizedAction], ParameterizedAction]

#: Per-transition consumer driven by :class:`EpisodeRunner`; returns True
#: when training diverged and the episode must be abandoned.
TransitionSink = Callable[[Transition], bool]

#: File name of the rolling training checkpoint inside ``checkpoint_dir``.
CHECKPOINT_NAME = "train.ckpt.npz"


class NaNLossError(RuntimeError):
    """Training diverged to NaN/inf and no checkpoint of this run was left
    to roll back to (one it resumed from or wrote)."""


@dataclass
class RLTrainingLog:
    """Per-episode statistics of one training run."""

    episode_rewards: list[float] = field(default_factory=list)
    episode_steps: list[int] = field(default_factory=list)
    collisions: int = 0
    wall_time: float = 0.0
    nan_rollbacks: int = 0
    resumed_episodes: int = 0
    #: Chained SHA-256 over the consumed transition stream, extended by
    #: the round source (``repro.train``) and checkpointed with the log;
    #: equality across worker counts certifies the optimizer saw the
    #: identical sequence.  The serial source leaves it None (no hashing).
    transition_digest: str | None = None

    @property
    def episodes(self) -> int:
        return len(self.episode_rewards)

    def mean_recent_reward(self, window: int = 50) -> float:
        recent = self.episode_rewards[-window:]
        return sum(recent) / max(len(recent), 1)


def _finite(losses: dict[str, float] | None) -> bool:
    return losses is None or all(np.isfinite(v) for v in losses.values())


@dataclass(frozen=True)
class EpisodeOutcome:
    """What one :class:`EpisodeRunner` episode produced."""

    reward_sum: float
    steps: int
    collided: bool
    diverged: bool  # sink reported non-finite training state; episode aborted

    @property
    def mean_reward(self) -> float:
        return self.reward_sum / max(self.steps, 1)


class LearningSink:
    """The serial per-step consumer: store, check finiteness, optimize.

    Mirrors the exact order of operations the training loop has always
    had -- ``observe`` (which advances the exploration clock) happens
    before the finiteness check, and the optimization step fires on the
    post-observe step count -- so the refactored loop is bit-identical
    to the original.
    """

    def __init__(self, agent: PamdpAgent, learn_every: int = 1) -> None:
        self.agent = agent
        self.learn_every = learn_every

    def __call__(self, transition: Transition) -> bool:
        self.agent.observe(transition)
        if not np.isfinite(transition.reward):
            return True
        if self.agent.total_steps % self.learn_every == 0:
            losses = self.agent.learn()
            if not _finite(losses):
                return True
        return False


class EpisodeRunner:
    """Drive one seeded episode; delegate transition handling to a sink.

    The acting side of training (reset, act/filter/step, transition
    assembly) is identical whether the consumer learns online (the
    serial loop's :class:`LearningSink`) or just collects for a learner
    process (``repro.train``'s worker sink), so both paths share this
    runner -- the only way to *guarantee* a worker generates exactly the
    trajectory the serial loop would have.
    """

    def __init__(self, env: DrivingEnv,
                 action_filter: ActionFilter | None = None,
                 max_episode_steps: int | None = None) -> None:
        self.env = env
        self.action_filter = action_filter
        self.max_episode_steps = max_episode_steps

    def run(self, agent: PamdpAgent, seed: int,
            sink: TransitionSink) -> EpisodeOutcome:
        env = self.env
        state = env.reset(seed)
        reward_sum = 0.0
        steps = 0
        cap = self.max_episode_steps or env.max_steps
        while steps < cap:
            action = agent.act(state, explore=True)
            if self.action_filter is not None:
                action = self.action_filter(env, action)
            next_state, breakdown, done, _ = env.step(action)
            aux = agent.last_aux() if hasattr(agent, "last_aux") else None
            diverged = sink(Transition(
                state=state, behavior=int(action.behavior),
                accel=action.accel, reward=breakdown.total,
                next_state=next_state, done=done, aux=aux,
            ))
            if diverged:
                return EpisodeOutcome(reward_sum, steps,
                                      env.result.collided, True)
            reward_sum += breakdown.total
            steps += 1
            if done or next_state is None:
                break
            state = next_state
        return EpisodeOutcome(reward_sum, steps, env.result.collided, False)


def _load_run(path: Path, agent: PamdpAgent, log: RLTrainingLog,
              schedule: dict) -> tuple[int, float, int]:
    """Restore agent and log; returns ``(next_episode, wall, rollbacks)``."""
    extra = load_checkpoint(path, agent)
    check_schedule(extra, schedule, path=path)
    log.episode_rewards[:] = [float(r) for r in extra["episode_rewards"]]
    log.episode_steps[:] = [int(s) for s in extra["episode_steps"]]
    log.collisions = int(extra["collisions"])
    log.transition_digest = extra["transition_digest"]
    return (int(extra["next_episode"]), float(extra["wall_time"]),
            int(extra["rollbacks"]))


def run_training(agent: PamdpAgent, source, episodes: int, *,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_every: int = 0,
                 resume: bool = True,
                 max_nan_rollbacks: int = 3) -> RLTrainingLog:
    """Train ``agent`` on ``episodes`` episodes drawn from ``source``.

    The source provides ``schedule`` (the JSON constants its curve is a
    function of; recorded in checkpoints, checked on resume),
    ``round_size``, ``run_round(episode, round_end, log)`` (learns from
    and yields the :class:`EpisodeOutcome` of each episode in
    ``[episode, round_end)``) and ``abandon()`` (drop the round after a
    rollback).  Checkpoints land on the first round boundary at or past
    ``checkpoint_every``.
    """
    log = RLTrainingLog()
    ckpt_path = (None if checkpoint_dir is None
                 else Path(checkpoint_dir) / CHECKPOINT_NAME)
    episode = 0
    base_wall = 0.0
    # the checkpoint a divergence may restore: one this run resumed from
    # or wrote, never a file another run left behind
    rollback_path = None
    if ckpt_path is not None and resume and ckpt_path.exists():
        episode, base_wall, log.nan_rollbacks = _load_run(
            ckpt_path, agent, log, source.schedule)
        log.resumed_episodes = episode
        rollback_path = ckpt_path
    last_saved = episode
    start = time.perf_counter()

    while episode < episodes:
        round_end = min(episode + source.round_size, episodes)
        for outcome in source.run_round(episode, round_end, log):
            if outcome.diverged:
                log.nan_rollbacks += 1
                if rollback_path is None or log.nan_rollbacks > max_nan_rollbacks:
                    raise NaNLossError(
                        f"non-finite loss/reward in episode {episode} "
                        f"(rollbacks used: {log.nan_rollbacks - 1})")
                # the checkpoint's rollback count predates this divergence:
                # keep the live one
                episode, base_wall, _ = _load_run(rollback_path, agent, log,
                                                  source.schedule)
                # deterministic jitter: without it the restored state
                # replays the exact trajectory back into the same divergence
                agent.rng.random(log.nan_rollbacks)
                source.abandon()
                start = time.perf_counter()
                break
            log.episode_rewards.append(outcome.mean_reward)
            log.episode_steps.append(outcome.steps)
            if outcome.collided:
                log.collisions += 1
            episode += 1

        if (ckpt_path is not None and checkpoint_every > 0
                and episode - last_saved >= checkpoint_every):
            save_checkpoint(ckpt_path, agent, extra={
                "next_episode": episode,
                "episode_rewards": list(log.episode_rewards),
                "episode_steps": list(log.episode_steps),
                "collisions": log.collisions,
                "wall_time": base_wall + (time.perf_counter() - start),
                "rollbacks": log.nan_rollbacks,
                "transition_digest": log.transition_digest,
                "schedule": source.schedule,
            })
            last_saved = episode
            rollback_path = ckpt_path
    log.wall_time = base_wall + (time.perf_counter() - start)
    return log


class _SerialSource:
    """Rounds of one episode, learning online through :class:`LearningSink`."""

    round_size = 1

    def __init__(self, agent: PamdpAgent, env: DrivingEnv, seed_offset: int,
                 learn_every: int, action_filter: ActionFilter | None,
                 max_episode_steps: int | None) -> None:
        self.schedule = {"trainer": "serial", "seed_offset": int(seed_offset),
                         "learn_every": int(learn_every),
                         "max_episode_steps": max_episode_steps}
        self.agent = agent
        self.seed_offset = seed_offset
        self.runner = EpisodeRunner(env, action_filter, max_episode_steps)
        self.sink = LearningSink(agent, learn_every)

    def run_round(self, episode: int, round_end: int,
                  log: RLTrainingLog) -> Iterator[EpisodeOutcome]:
        yield self.runner.run(self.agent, self.seed_offset + episode,
                              self.sink)

    def abandon(self) -> None:
        pass  # nothing runs ahead of the learner


def train_agent(agent: PamdpAgent, env: DrivingEnv, episodes: int,
                seed_offset: int = 0, learn_every: int = 1,
                action_filter: ActionFilter | None = None,
                max_episode_steps: int | None = None,
                checkpoint_dir: str | Path | None = None,
                checkpoint_every: int = 0,
                resume: bool = True,
                max_nan_rollbacks: int = 3) -> RLTrainingLog:
    """Train ``agent`` for ``episodes`` seeded episodes.

    Parameters
    ----------
    seed_offset:
        Episode i uses seed ``seed_offset + i`` so runs are reproducible
        and disjoint from the evaluation seeds.
    learn_every:
        Environment steps between optimization steps.
    action_filter:
        Applied to every action before execution *and* reflected in the
        stored transition (the executed action is what gets credited).
    max_episode_steps:
        Optional override of the environment's episode cap.
    checkpoint_dir / checkpoint_every:
        When both are set, write an atomic checkpoint of the full
        training state every ``checkpoint_every`` episodes.
    resume:
        Continue from an existing checkpoint in ``checkpoint_dir`` (a
        killed run picks up where its last checkpoint left off and
        reproduces the uninterrupted run's episode rewards exactly).
        A checkpoint of another schedule raises
        :class:`~repro.faults.checkpoint.ScheduleMismatchError`.
    max_nan_rollbacks:
        A non-finite loss or reward restores the last good checkpoint
        this run resumed from or wrote (never one another run left in
        ``checkpoint_dir``), with a deterministic RNG perturbation so
        the run does not replay into the same divergence, at most this
        many times before :class:`NaNLossError` is raised.
    """
    source = _SerialSource(agent, env, seed_offset, learn_every,
                           action_filter, max_episode_steps)
    return run_training(agent, source, episodes,
                        checkpoint_dir=checkpoint_dir,
                        checkpoint_every=checkpoint_every, resume=resume,
                        max_nan_rollbacks=max_nan_rollbacks)
