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

* For a fixed ``(root_seed, sync_every, learn_every, seed_offset)``,
  the consumed transition stream, the learning curve, and the final
  weights are **bitwise identical for every worker count** -- including
  ``workers=0`` (in-process generation, no subprocesses) and
  ``workers=1``.
* The *parallel schedule* is not the *serial schedule*: the serial loop
  updates weights mid-episode and draws exploration from one shared
  stream, which is impossible to reproduce while generating episodes
  concurrently.  ``workers=1`` here reproduces the parallel schedule
  with one actor, not ``train_agent``'s curve; the CLI keeps
  ``--workers 1`` on the serial path for backward bit-compatibility.

Crash safety extends PR 2's checkpoints: snapshots happen at round
boundaries (where no generation is in flight, so there is no queue
state to persist -- in-flight episodes are pure functions of their
task and simply regenerate on resume), stamped with the schedule
constants, the consumed-stream digest, and the rollback count so a
SIGKILL-resume reproduces the uninterrupted run exactly.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue
import time
from pathlib import Path

import numpy as np

from ..decision.agents import PamdpAgent
from ..decision.replay import TransitionBatch
from ..decision.trainer import (ActionFilter, CHECKPOINT_NAME, EpisodeRunner,
                                NaNLossError, RLTrainingLog, _finite)
from ..faults.checkpoint import (check_schedule, load_checkpoint,
                                 save_checkpoint)
from .sync import SharedPolicy, policy_modules
from .worker import (EpisodeResult, EpisodeTask, WorkerOptions, run_episode,
                     worker_main)

__all__ = ["train_agent_parallel", "ReorderBuffer", "WorkerCrashError"]

#: Seconds between learner liveness checks while waiting on results.
_RESULT_POLL = 5.0


class WorkerCrashError(RuntimeError):
    """An actor worker died or raised instead of producing its episode."""


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


def _parallel_extra(log: RLTrainingLog, next_episode: int, wall_time: float,
                    schedule: dict, digest: str) -> dict:
    return {
        "next_episode": next_episode,
        "episode_rewards": list(log.episode_rewards),
        "episode_steps": list(log.episode_steps),
        "collisions": log.collisions,
        "wall_time": wall_time,
        "rollbacks": log.nan_rollbacks,
        "transition_digest": digest,
        "schedule": schedule,
    }


def _restore_parallel(path: Path, agent: PamdpAgent, log: RLTrainingLog,
                      schedule: dict) -> tuple[int, float, str]:
    """Load a parallel checkpoint; returns (next_episode, wall, digest)."""
    extra = load_checkpoint(path, agent)
    check_schedule(extra, schedule, path=path)
    log.episode_rewards[:] = [float(r) for r in extra["episode_rewards"]]
    log.episode_steps[:] = [int(s) for s in extra["episode_steps"]]
    log.collisions = int(extra["collisions"])
    log.nan_rollbacks = int(extra["rollbacks"])
    return (int(extra["next_episode"]), float(extra["wall_time"]),
            str(extra["transition_digest"]))


class _InlineActors:
    """``workers=0``: generate each round in-process, no subprocesses.

    Bitwise equal to worker mode -- episodes are generated for the whole
    round *before* any of it is consumed (so the policy is frozen at the
    round snapshot, exactly like a worker holding the published
    version), on the learner's own agent with its exploration stream and
    clock swapped out per episode.  The replay buffer keeps sharing the
    learner's real generator object, so sampling draws are untouched.
    Exists so equivalence tests and debugging runs pay zero spawn cost.
    """

    def __init__(self, agent: PamdpAgent, env_factory,
                 options: WorkerOptions,
                 action_filter: ActionFilter | None) -> None:
        self.agent = agent
        self.runner = EpisodeRunner(env_factory(), action_filter,
                                    options.max_episode_steps)
        self.options = options

    def generate(self, tasks: list[EpisodeTask]) -> list[EpisodeResult]:
        agent = self.agent
        saved_rng, saved_steps = agent.rng, agent.total_steps
        saved_epsilon = agent.epsilon
        saved_noise = agent.noise_scale
        try:
            agent.epsilon = self.options.epsilon
            agent.noise_scale = self.options.noise_scale
            return [run_episode(agent, self.runner, task, self.options)
                    for task in tasks]
        finally:
            agent.rng = saved_rng
            agent.total_steps = saved_steps
            agent.epsilon = saved_epsilon
            agent.noise_scale = saved_noise


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


def train_agent_parallel(agent: PamdpAgent, env_factory, episodes: int, *,
                         workers: int,
                         agent_factory=None,
                         sync_every: int = 8,
                         learn_every: int = 1,
                         seed_offset: int = 10_000,
                         root_seed: int | None = None,
                         action_filter: ActionFilter | None = None,
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
    learn_every / seed_offset:
        Same meaning as in :func:`~repro.decision.trainer.train_agent`.
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

    schedule = {"root_seed": int(root_seed), "sync_every": int(sync_every),
                "learn_every": int(learn_every),
                "seed_offset": int(seed_offset)}
    modules = policy_modules(agent)
    options = WorkerOptions(
        root_seed=root_seed, seed_offset=seed_offset,
        max_episode_steps=max_episode_steps, epsilon=agent.epsilon,
        noise_scale=agent.noise_scale,
        parent_pid=multiprocessing.current_process().pid or 0)

    log = RLTrainingLog()
    digest = "seed"
    ckpt_path: Path | None = None
    if checkpoint_dir is not None:
        ckpt_path = Path(checkpoint_dir) / CHECKPOINT_NAME
    episode = 0
    base_wall = 0.0
    last_saved = 0
    if ckpt_path is not None and resume and ckpt_path.exists():
        episode, base_wall, digest = _restore_parallel(ckpt_path, agent, log,
                                                       schedule)
        log.resumed_episodes = episode
        last_saved = episode
    start = time.perf_counter()

    pool: _WorkerPool | None = None
    inline: _InlineActors | None = None
    if workers >= 1:
        pool = _WorkerPool(workers, agent, env_factory, agent_factory,
                           options)
    else:
        inline = _InlineActors(agent, env_factory, options, action_filter)
    generation = 0
    reorder = ReorderBuffer(episode)

    try:
        while episode < episodes:
            round_end = min(episode + sync_every, episodes)
            tasks = [EpisodeTask(generation=generation, episode=e,
                                 clock_base=agent.total_steps,
                                 version=0, rollbacks=log.nan_rollbacks)
                     for e in range(episode, round_end)]
            if pool is not None:
                version = pool.policy.publish(modules)
                tasks = [EpisodeTask(generation=t.generation,
                                     episode=t.episode,
                                     clock_base=t.clock_base,
                                     version=version,
                                     rollbacks=t.rollbacks) for t in tasks]
                pool.dispatch(tasks)
            else:
                for result in inline.generate(tasks):
                    reorder.put(result)

            diverged = False
            while episode < round_end:
                result = reorder.take()
                if result is None:
                    reorder.put(pool.next_result(generation))
                    continue
                digest, diverged = _consume_episode(
                    agent, result.batch(), result.diverged, learn_every,
                    digest)
                if diverged:
                    break
                log.episode_rewards.append(
                    result.reward_sum / max(result.steps, 1))
                log.episode_steps.append(result.steps)
                if result.collided:
                    log.collisions += 1
                episode += 1

            if diverged:
                log.nan_rollbacks += 1
                if (ckpt_path is None or not ckpt_path.exists()
                        or log.nan_rollbacks > max_nan_rollbacks):
                    raise NaNLossError(
                        f"non-finite loss/reward in episode {episode} "
                        f"(rollbacks used: {log.nan_rollbacks - 1})")
                rollbacks = log.nan_rollbacks
                episode, base_wall, digest = _restore_parallel(
                    ckpt_path, agent, log, schedule)
                # the restored counter predates the divergence; carry the
                # live count so the retry's exploration streams (keyed on
                # it) actually explore differently
                log.nan_rollbacks = rollbacks
                agent.rng.random(log.nan_rollbacks)
                generation += 1
                reorder.reset(episode)
                start = time.perf_counter()
                continue

            if (ckpt_path is not None and checkpoint_every > 0
                    and episode - last_saved >= checkpoint_every):
                wall = base_wall + (time.perf_counter() - start)
                save_checkpoint(ckpt_path, agent,
                                extra=_parallel_extra(log, episode, wall,
                                                      schedule, digest))
                last_saved = episode
    finally:
        if pool is not None:
            pool.shutdown()

    log.wall_time = base_wall + (time.perf_counter() - start)
    log.transition_digest = digest
    return log
