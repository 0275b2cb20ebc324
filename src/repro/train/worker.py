"""The actor-worker process of parallel training.

A worker owns a private environment and a lightweight actor copy of the
agent (one-slot replay buffer -- it only *generates* experience).  It
loops on the task queue: refresh policy weights from shared memory if
the version moved, re-seed the actor's exploration stream for the
assigned episode, run the episode through the shared
:class:`~repro.decision.trainer.EpisodeRunner`, and ship the packed
transitions back on the result queue.

Determinism contract: the trajectory a worker produces for task
``(episode, clock_base, version)`` is a pure function of those values
plus the run's root seed -- the exploration stream is
``spawn_stream(root_seed, episode, rollbacks)`` (never a stream shared
between episodes), the environment seed is ``seed_offset + episode``,
and the exploration-decay clock starts at the round's ``clock_base``.
Nothing depends on which worker ran it, on how many workers exist, or
on arrival order.

Workers are daemonic children of the learner; if the learner is
SIGKILLed they notice the re-parenting on the next queue-poll timeout
and exit instead of leaking.
"""

from __future__ import annotations

import os
import queue
import traceback
from dataclasses import dataclass, replace

import numpy as np

from ..decision.agents import EpsilonSchedule, PamdpAgent
from ..decision.replay import Transition, TransitionBatch
from ..decision.trainer import EpisodeRunner
from ..seeding import spawn_stream
from .sync import SharedPolicy, policy_modules

__all__ = ["WorkerOptions", "EpisodeTask", "EpisodeResult", "CollectSink",
           "worker_main"]


@dataclass(frozen=True)
class WorkerOptions:
    """Run-constant configuration shipped to every worker at start-up."""

    root_seed: int
    seed_offset: int
    max_episode_steps: int | None
    epsilon: EpsilonSchedule
    noise_scale: float
    parent_pid: int
    poll_seconds: float = 2.0


@dataclass(frozen=True)
class EpisodeTask:
    """One episode assignment: everything its trajectory is a function of."""

    generation: int   # rollback epoch; stale-generation results are dropped
    episode: int
    clock_base: int   # learner's total_steps at the round start
    version: int      # policy version the round was published as; checked
                      # against the version the worker held
    rollbacks: int    # folded into the exploration stream key


@dataclass(frozen=True)
class EpisodeResult:
    """A finished episode in wire form."""

    generation: int
    episode: int
    worker_id: int
    payload: dict[str, np.ndarray] | None  # TransitionBatch field arrays
    reward_sum: float = 0.0
    steps: int = 0
    collided: bool = False
    diverged: bool = False
    error: str | None = None
    version: int = 0  # policy version the episode ran under (0: inline)

    def batch(self) -> TransitionBatch:
        return TransitionBatch(**self.payload)


class CollectSink:
    """Worker-side transition sink: record and advance the actor clock.

    The serial :class:`~repro.decision.trainer.LearningSink` advances
    the exploration clock through ``agent.observe``; a collecting actor
    never stores or learns, so the clock advance is replicated here --
    without it epsilon/noise decay would freeze mid-episode and the
    trajectory would diverge from the serial schedule.
    """

    def __init__(self, actor: PamdpAgent) -> None:
        self.actor = actor
        self.transitions: list[Transition] = []

    def __call__(self, transition: Transition) -> bool:
        self.transitions.append(transition)
        self.actor.total_steps += 1
        return not np.isfinite(transition.reward)

    def pack(self) -> TransitionBatch:
        return TransitionBatch.from_transitions(self.transitions)


def run_episode(actor: PamdpAgent, runner: EpisodeRunner, task: EpisodeTask,
                options: WorkerOptions) -> EpisodeResult:
    """Generate one episode per the determinism contract (pure in ``task``)."""
    actor.rng = spawn_stream(options.root_seed, task.episode, task.rollbacks)
    actor.total_steps = task.clock_base
    sink = CollectSink(actor)
    outcome = runner.run(actor, options.seed_offset + task.episode, sink)
    return EpisodeResult(
        generation=task.generation, episode=task.episode, worker_id=-1,
        payload=sink.pack().arrays(), reward_sum=outcome.reward_sum,
        steps=outcome.steps, collided=outcome.collided,
        diverged=outcome.diverged)


def worker_main(worker_id: int, task_queue, result_queue,
                policy: SharedPolicy, env_factory, agent_factory,
                options: WorkerOptions) -> None:
    """Entry point of one actor process (spawn-picklable, module level)."""
    try:
        env = env_factory()
        actor = agent_factory()
        actor.epsilon = options.epsilon
        actor.noise_scale = options.noise_scale
        modules = policy_modules(actor)
        local_size = sum(module.num_parameters() for module in modules)
        if local_size != policy.size:
            raise RuntimeError(
                f"actor architecture mismatch: worker holds {local_size} "
                f"parameters, learner broadcasts {policy.size}")
        runner = EpisodeRunner(env, max_episode_steps=options.max_episode_steps)
    except BaseException:
        result_queue.put(EpisodeResult(
            generation=-1, episode=-1, worker_id=worker_id, payload=None,
            error=traceback.format_exc()))
        return

    held_version = 0
    while True:
        try:
            task = task_queue.get(timeout=options.poll_seconds)
        except queue.Empty:
            if os.getppid() != options.parent_pid:
                return  # learner died (SIGKILL); don't linger as an orphan
            continue
        if task is None:
            return
        try:
            held_version = policy.refresh(modules, held_version)
            result = run_episode(actor, runner, task, options)
            result_queue.put(replace(result, worker_id=worker_id,
                                     version=held_version))
        except BaseException:
            result_queue.put(EpisodeResult(
                generation=task.generation, episode=task.episode,
                worker_id=worker_id, payload=None,
                error=traceback.format_exc()))
