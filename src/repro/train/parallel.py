"""Actor-learner parallel training with a bit-reproducible schedule.

One learner (this process) plus N actor workers.  Episodes are grouped
into synchronous *rounds* of ``sync_every``: the learner publishes its
policy networks to shared memory, dispatches the round's episode ids,
and consumes the results **in canonical episode order** behind a
:class:`ReorderBuffer` -- so the optimizer sees a transition sequence
that does not depend on arrival order, worker count, or scheduling.
Each consumed episode is drained in ``learn_every``-sized chunks
through :meth:`~repro.decision.replay.ReplayBuffer.push_many`,
replicating the serial loop's learn cadence exactly.

The determinism contract (see ``docs/training.md``):

* For a fixed ``(root_seed, sync_every, learn_every, seed_offset,
  max_episode_steps)``, the consumed transition stream, the learning
  curve, and the final weights are **bitwise identical for every
  worker count** -- including
  ``workers=0`` (in-process generation, no subprocesses) and
  ``workers=1``.
* The *parallel schedule* is not the *serial schedule*: the serial loop
  updates weights mid-episode and draws exploration from one shared
  stream, which is impossible to reproduce while generating episodes
  concurrently.  ``workers=1`` here reproduces the parallel schedule
  with one actor, not ``train_agent``'s curve; the CLI keeps
  ``--workers 1`` on the serial path for backward bit-compatibility.

This module is the round *episode source* of the one training driver,
:func:`~repro.decision.trainer.run_training`, which owns the log,
checkpoints, resume and NaN rollback of both trainers; what stays here
is what is truly parallel (publish/dispatch, reorder, digest, the
generation counter a rollback bumps to drop stale in-flight results).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue
from pathlib import Path
from typing import Iterator

import numpy as np

from ..decision.agents import PamdpAgent
from ..decision.replay import TransitionBatch
from ..decision.trainer import (EpisodeOutcome, EpisodeRunner, RLTrainingLog,
                                _finite, run_training)
from .sync import SharedPolicy, policy_modules
from .worker import (EpisodeResult, EpisodeTask, WorkerOptions, run_episode,
                     worker_main)

__all__ = ["train_agent_parallel", "ReorderBuffer", "WorkerCrashError",
           "StalePolicyError"]

#: Seconds between learner liveness checks while waiting on results.
_RESULT_POLL = 5.0


class WorkerCrashError(RuntimeError):
    """An actor worker died or raised instead of producing its episode."""


class StalePolicyError(RuntimeError):
    """An episode of the current round ran under another policy version
    than the one the round was published as."""


class ReorderBuffer:
    """Deliver episode results in canonical id order, whatever the arrival.

    Workers finish out of order; the learner must consume in episode
    order or the replay/optimizer stream would depend on scheduling.
    ``put`` admits a result, ``take`` returns the next canonical episode
    iff it has arrived.  ``reset`` discards pending results (rollback:
    everything in flight belongs to the abandoned generation).
    """

    def __init__(self, next_episode: int = 0) -> None:
        self.next_episode = next_episode
        self._pending: dict[int, EpisodeResult] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def put(self, result: EpisodeResult) -> None:
        self._pending[result.episode] = result

    def take(self) -> EpisodeResult | None:
        result = self._pending.pop(self.next_episode, None)
        if result is not None:
            self.next_episode += 1
        return result

    def reset(self, next_episode: int) -> None:
        self.next_episode = next_episode
        self._pending.clear()


def _chain_digest(digest: str, chunk: TransitionBatch) -> str:
    """Extend the consumed-stream digest by one chunk.

    Chained (each link hashes the previous hex) rather than one running
    hash object so the digest is a plain string that survives the
    checkpoint round-trip -- hashlib state is not serializable.
    """
    link = hashlib.sha256()
    link.update(digest.encode("ascii"))
    for name, column in sorted(chunk.arrays().items()):
        link.update(name.encode("ascii"))
        link.update(np.ascontiguousarray(column).tobytes())
    return link.hexdigest()


def _consume_episode(agent: PamdpAgent, batch: TransitionBatch,
                     generated_diverged: bool, learn_every: int,
                     digest: str) -> tuple[str, bool]:
    """Feed one episode's transitions at the serial learn cadence.

    Returns ``(digest, diverged)``.  Chunks end exactly on the global
    ``learn_every`` boundaries the serial loop would have learned at;
    a worker-flagged non-finite final transition is stored (the serial
    loop observes before it checks) but never learned on.
    """
    total = len(batch)
    index = 0
    while index < total:
        boundary = learn_every - (agent.total_steps % learn_every)
        chunk = batch[index:index + boundary]
        agent.buffer.push_many(chunk)
        agent.total_steps += len(chunk)
        digest = _chain_digest(digest, chunk)
        index += len(chunk)
        poisoned_tail = generated_diverged and index == total
        if agent.total_steps % learn_every == 0 and not poisoned_tail:
            losses = agent.learn()
            if not _finite(losses):
                return digest, True
    return digest, generated_diverged


class _InlineActors:
    """``workers=0``: generate each round in-process, no subprocesses.

    Bitwise equal to worker mode -- dispatch generates the whole round
    *before* any of it is consumed (so the policy is frozen at the round
    snapshot, exactly like a worker holding the published version), on
    the learner's own agent with its exploration stream and clock
    swapped out per episode.  The replay buffer keeps sharing the
    learner's real generator object, so sampling draws are untouched.
    Exists so equivalence tests and debugging runs pay zero spawn cost.
    """

    def __init__(self, agent: PamdpAgent, env_factory,
                 options: WorkerOptions) -> None:
        self.agent = agent
        self.runner = EpisodeRunner(
            env_factory(), max_episode_steps=options.max_episode_steps)
        self.options = options
        self._results: Iterator[EpisodeResult] = iter(())

    def publish(self, modules) -> int:
        return 0  # generation reads the learner's own networks

    def dispatch(self, tasks: list[EpisodeTask]) -> None:
        # the options' exploration schedule is the learner's own, so only
        # the stream and the clock need swapping
        agent = self.agent
        saved_rng, saved_steps = agent.rng, agent.total_steps
        try:
            self._results = iter([
                run_episode(agent, self.runner, task, self.options)
                for task in tasks])
        finally:
            agent.rng = saved_rng
            agent.total_steps = saved_steps

    def next_result(self, generation: int) -> EpisodeResult:
        return next(self._results)

    def shutdown(self) -> None:
        pass


class _WorkerPool:
    """Spawned actor processes plus their queues and shared policy block."""

    def __init__(self, workers: int, agent: PamdpAgent, env_factory,
                 agent_factory, options: WorkerOptions) -> None:
        context = multiprocessing.get_context("spawn")
        self.policy = SharedPolicy.for_agent(context, agent)
        self.tasks = context.Queue()
        self.results = context.Queue()
        self.processes = [
            context.Process(
                target=worker_main,
                args=(worker_id, self.tasks, self.results, self.policy,
                      env_factory, agent_factory, options),
                daemon=True, name=f"repro-train-actor-{worker_id}")
            for worker_id in range(workers)
        ]
        for process in self.processes:
            process.start()

    def publish(self, modules) -> int:
        return self.policy.publish(modules)

    def dispatch(self, tasks: list[EpisodeTask]) -> None:
        for task in tasks:
            self.tasks.put(task)

    def next_result(self, generation: int) -> EpisodeResult:
        """Block for the next live result of the current generation."""
        while True:
            try:
                result = self.results.get(timeout=_RESULT_POLL)
            except queue.Empty:
                dead = [p.name for p in self.processes if not p.is_alive()]
                if dead:
                    raise WorkerCrashError(
                        f"actor process(es) died without reporting: {dead}")
                continue
            if result.error is not None:
                raise WorkerCrashError(
                    f"actor {result.worker_id} failed on episode "
                    f"{result.episode}:\n{result.error}")
            if result.generation == generation:
                return result
            # stale generation (pre-rollback in-flight work): drop

    def shutdown(self) -> None:
        for _ in self.processes:
            try:
                self.tasks.put(None)
            except (OSError, ValueError):
                break
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for q in (self.tasks, self.results):
            q.cancel_join_thread()
            q.close()


class _RoundSource:
    """Rounds of ``sync_every`` episodes generated against one published
    snapshot and consumed in canonical order; ``abandon`` bumps the
    generation, so results in flight from a rolled-back round are dropped.
    """

    def __init__(self, agent: PamdpAgent, actors, sync_every: int,
                 learn_every: int, schedule: dict) -> None:
        self.agent = agent
        self.actors = actors
        self.round_size = sync_every
        self.learn_every = learn_every
        self.schedule = schedule
        self.modules = policy_modules(agent)
        self.generation = 0
        self.reorder = ReorderBuffer()

    def run_round(self, episode: int, round_end: int,
                  log: RLTrainingLog) -> Iterator[EpisodeOutcome]:
        version = self.actors.publish(self.modules)
        self.reorder.reset(episode)
        self.actors.dispatch([
            EpisodeTask(generation=self.generation, episode=e,
                        clock_base=self.agent.total_steps, version=version,
                        rollbacks=log.nan_rollbacks)
            for e in range(episode, round_end)])
        for _ in range(episode, round_end):
            while (result := self.reorder.take()) is None:
                self.reorder.put(self.actors.next_result(self.generation))
            if result.version != version:
                raise StalePolicyError(
                    f"episode {result.episode} ran under policy version "
                    f"{result.version}; its round was published as {version}")
            log.transition_digest, diverged = _consume_episode(
                self.agent, result.batch(), result.diverged,
                self.learn_every, log.transition_digest or "seed")
            yield EpisodeOutcome(result.reward_sum, result.steps,
                                 result.collided, diverged)

    def abandon(self) -> None:
        self.generation += 1


def train_agent_parallel(agent: PamdpAgent, env_factory, episodes: int, *,
                         workers: int,
                         agent_factory=None,
                         sync_every: int = 8,
                         learn_every: int = 1,
                         seed_offset: int = 10_000,
                         root_seed: int | None = None,
                         max_episode_steps: int | None = None,
                         checkpoint_dir: str | Path | None = None,
                         checkpoint_every: int = 0,
                         resume: bool = True,
                         max_nan_rollbacks: int = 3) -> RLTrainingLog:
    """Train ``agent`` on worker-generated episodes; N-invariant bitwise.

    Parameters
    ----------
    env_factory:
        Zero-argument picklable callable building a fresh
        :class:`~repro.decision.environment.DrivingEnv`
        (:func:`repro.train.factories.build_env` via ``functools.partial``).
        Also used for the learner-side environment when ``workers=0``.
    workers:
        Actor process count; ``0`` generates in-process on the identical
        schedule (fast, no spawn -- the equivalence-test mode).
    agent_factory:
        Zero-argument picklable callable building an actor copy of the
        agent (:func:`repro.train.factories.build_agent` with
        ``learner=False``).  Required when ``workers >= 1``.
    sync_every:
        Episodes per round; each round's episodes are generated against
        the policy snapshot published at the round start, so this bounds
        policy staleness (in episodes) and is part of the schedule
        identity -- changing it changes the learning curve.
    learn_every / seed_offset / max_episode_steps:
        Same meaning as in :func:`~repro.decision.trainer.train_agent`;
        all three are part of the schedule identity.
    root_seed:
        Root of the per-episode exploration streams (default:
        ``seed_offset``).  Part of the schedule identity.
    checkpoint_dir / checkpoint_every / resume / max_nan_rollbacks:
        As in the serial loop; checkpoints land on round boundaries (the
        first boundary at or past the cadence), so ``checkpoint_every``
        is a lower bound in episodes.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if sync_every < 1:
        raise ValueError("sync_every must be >= 1")
    if learn_every < 1:
        raise ValueError("learn_every must be >= 1")
    if workers >= 1 and agent_factory is None:
        raise ValueError("agent_factory is required when workers >= 1")
    if root_seed is None:
        root_seed = seed_offset

    schedule = {"trainer": "rounds", "root_seed": int(root_seed),
                "sync_every": int(sync_every),
                "learn_every": int(learn_every),
                "seed_offset": int(seed_offset),
                "max_episode_steps": max_episode_steps}
    options = WorkerOptions(
        root_seed=root_seed, seed_offset=seed_offset,
        max_episode_steps=max_episode_steps, epsilon=agent.epsilon,
        noise_scale=agent.noise_scale,
        parent_pid=multiprocessing.current_process().pid or 0)
    if workers >= 1:
        actors = _WorkerPool(workers, agent, env_factory, agent_factory,
                             options)
    else:
        actors = _InlineActors(agent, env_factory, options)
    source = _RoundSource(agent, actors, sync_every, learn_every, schedule)
    try:
        return run_training(agent, source, episodes,
                            checkpoint_dir=checkpoint_dir,
                            checkpoint_every=checkpoint_every,
                            resume=resume,
                            max_nan_rollbacks=max_nan_rollbacks)
    finally:
        actors.shutdown()
