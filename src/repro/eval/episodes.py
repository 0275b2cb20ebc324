"""Episode execution for evaluation: drive a controller through seeded episodes."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..decision.environment import DrivingEnv, EpisodeResult
from ..decision.fleet import FleetEnv, FleetEpisodeResult
from ..decision.policies import Controller
from .metrics import (EvaluationReport, FleetImpactReport, aggregate,
                      aggregate_fleet)

__all__ = ["run_episode", "evaluate_controller", "run_fleet_episode",
           "evaluate_fleet", "RewardStats", "reward_statistics"]


def run_episode(controller: Controller, env: DrivingEnv, seed: int,
                max_steps: int | None = None) -> EpisodeResult:
    """Run one greedy episode under ``controller``; returns its result."""
    state = env.reset(seed)
    controller.begin_episode()
    cap = max_steps or env.max_steps
    steps = 0
    while steps < cap:
        action = controller.select_action(env, state)
        state, _, done, _ = env.step(action)
        steps += 1
        if done or state is None:
            break
    return env.result


def evaluate_controller(controller: Controller, env: DrivingEnv,
                        seeds: list[int] | range,
                        max_steps: int | None = None) -> EvaluationReport:
    """Run the test episodes (paper: 500) and aggregate the metrics."""
    results = [run_episode(controller, env, seed, max_steps=max_steps)
               for seed in seeds]
    return aggregate(results, env.road.length)


def run_fleet_episode(controller, env: FleetEnv, seed: int,
                      max_steps: int | None = None) -> FleetEpisodeResult:
    """Run one greedy fleet episode; all M policies step in lockstep.

    ``controller`` needs a ``select_actions(states) -> actions`` method
    mapping the active AVs' augmented states to parameterized actions
    (:class:`~repro.decision.fleet.FleetController`).
    """
    states = env.reset(seed)
    cap = max_steps or env.max_steps
    steps = 0
    while states and steps < cap:
        actions = controller.select_actions(states)
        states, _, done, _ = env.step(actions)
        steps += 1
        if done:
            break
    return env.result()


def evaluate_fleet(controller, env: FleetEnv, seeds: list[int] | range,
                   max_steps: int | None = None) -> FleetImpactReport:
    """Run seeded fleet episodes and fold them into fleet impact metrics."""
    results = [run_fleet_episode(controller, env, seed, max_steps=max_steps)
               for seed in seeds]
    return aggregate_fleet(results)


@dataclass(frozen=True)
class RewardStats:
    """Table V quantities: per-episode mean rewards summarized."""

    min_reward: float
    max_reward: float
    avg_reward: float
    avg_inference_ms: float


class _TimedController(Controller):
    """Delegates to ``inner``, recording each decision's wall time (s)."""

    def __init__(self, inner: Controller) -> None:
        self.inner = inner
        self.latencies: list[float] = []

    def begin_episode(self) -> None:
        self.inner.begin_episode()

    def select_action(self, env, state):
        start = time.perf_counter()
        action = self.inner.select_action(env, state)
        self.latencies.append(time.perf_counter() - start)
        return action


def reward_statistics(controller: Controller, env: DrivingEnv,
                      seeds: list[int] | range,
                      max_steps: int | None = None) -> RewardStats:
    """Episode mean-reward min/max/avg plus average per-step decision latency."""
    timed = _TimedController(controller)
    rewards = np.array([
        run_episode(timed, env, seed, max_steps=max_steps).mean_reward
        for seed in seeds])
    return RewardStats(
        min_reward=float(rewards.min()),
        max_reward=float(rewards.max()),
        avg_reward=float(rewards.mean()),
        avg_inference_ms=float(np.mean(timed.latencies) * 1000.0),
    )
