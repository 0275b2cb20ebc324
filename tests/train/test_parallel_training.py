"""Determinism contract of the actor-learner parallel trainer.

Three pillars, mirroring ``docs/training.md``:

1. **Golden serial regression** -- the refactored ``train_agent``
   (now built on the shared ``EpisodeRunner``) reproduces the learning
   curve recorded before the refactor, bit for bit.
2. **Worker-count invariance** -- for a fixed schedule, the consumed
   transition stream (chained SHA-256), the learning curve, and the
   final weights are identical for workers ∈ {0, 1, 2, 4}, where 0 is
   the in-process generation mode.  A hypothesis sweep repeats the
   0-vs-2 comparison across random schedules.
3. **Crash safety** -- a checkpoint-resumed run reproduces the
   uninterrupted run exactly, and resuming under different schedule
   constants fails loudly with :class:`ScheduleMismatchError`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import HEADConfig
from repro.decision.agents import PDQNAgent
from repro.decision.trainer import train_agent
from repro.faults.checkpoint import ScheduleMismatchError, check_schedule
from repro.seeding import default_generator
from repro.train import build_agent, build_env, train_agent_parallel
from repro.train import parallel
from repro.train.parallel import ReorderBuffer, StalePolicyError
from repro.train.sync import policy_modules
from repro.train.worker import EpisodeResult

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "serial_curve.json").read_text())

EPISODES = GOLDEN["episodes"]
MAX_STEPS = GOLDEN["max_steps"]
SEED_OFFSET = GOLDEN["seed_offset"]


def small_config() -> HEADConfig:
    config = HEADConfig().scaled(
        road_length=400.0, density_per_km=100.0,
        max_episode_steps=MAX_STEPS, attention_dim=16, lstm_dim=16,
        hidden_dim=16, replay_capacity=512)
    return replace(config, use_prediction=False)


def make_agent(config: HEADConfig):
    agent = build_agent(config)
    agent.warmup = GOLDEN["warmup"]
    agent.batch_size = GOLDEN["batch_size"]
    return agent


def weights_digest(agent) -> str:
    flat = np.concatenate([module.store()[0]
                           for module in policy_modules(agent)])
    return hashlib.sha256(flat.tobytes()).hexdigest()


def run_parallel(workers: int, *, episodes: int = EPISODES,
                 sync_every: int = 4, learn_every: int = 1,
                 seed_offset: int = SEED_OFFSET, **kwargs):
    config = small_config()
    agent = make_agent(config)
    log = train_agent_parallel(
        agent,
        functools.partial(build_env, config, max_steps=MAX_STEPS),
        episodes, workers=workers,
        agent_factory=functools.partial(build_agent, config, learner=False),
        sync_every=sync_every, learn_every=learn_every,
        seed_offset=seed_offset, max_episode_steps=MAX_STEPS, **kwargs)
    return log, agent


def fingerprint(log, agent):
    return (log.episode_rewards, log.episode_steps, log.collisions,
            log.transition_digest, weights_digest(agent))


# ----------------------------------------------------------------------
# golden serial regression
# ----------------------------------------------------------------------
def test_serial_loop_reproduces_pre_refactor_golden():
    config = small_config()
    agent = make_agent(config)
    log = train_agent(agent, build_env(config), episodes=EPISODES,
                      seed_offset=SEED_OFFSET, max_episode_steps=MAX_STEPS)
    assert log.episode_rewards == GOLDEN["episode_rewards"]
    assert log.episode_steps == GOLDEN["episode_steps"]
    assert log.collisions == GOLDEN["collisions"]
    assert weights_digest(agent) == GOLDEN["weights_sha256"]


# ----------------------------------------------------------------------
# worker-count invariance
# ----------------------------------------------------------------------
def test_parallel_is_invariant_in_worker_count():
    """workers ∈ {0, 1, 2, 4}: one schedule, one bitwise result."""
    reference = fingerprint(*run_parallel(0))
    assert reference[3] is not None  # digest actually recorded
    for workers in (1, 2, 4):
        assert fingerprint(*run_parallel(workers)) == reference, (
            f"workers={workers} diverged from the inline schedule")


@settings(max_examples=3, deadline=None)
@given(sync_every=st.integers(1, 6), learn_every=st.integers(1, 4),
       seed_offset=st.integers(0, 10_000))
def test_schedule_invariance_holds_across_parameters(sync_every, learn_every,
                                                     seed_offset):
    kwargs = dict(episodes=6, sync_every=sync_every,
                  learn_every=learn_every, seed_offset=seed_offset)
    inline = fingerprint(*run_parallel(0, **kwargs))
    spawned = fingerprint(*run_parallel(2, **kwargs))
    assert inline == spawned


def test_inline_mode_restores_learner_exploration_state():
    config = small_config()
    agent = make_agent(config)
    rng_before = agent.rng
    log = train_agent_parallel(
        agent, functools.partial(build_env, config, max_steps=MAX_STEPS),
        4, workers=0, sync_every=2, seed_offset=SEED_OFFSET,
        max_episode_steps=MAX_STEPS)
    # generation swaps the stream per episode; the learner's own stream
    # object must come back (the replay buffer aliases it for sampling)
    assert agent.rng is rng_before
    assert agent.buffer.rng is agent.rng
    assert agent.total_steps == sum(log.episode_steps)


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------
def test_checkpoint_resume_reproduces_uninterrupted_run(tmp_path):
    uninterrupted = fingerprint(*run_parallel(0))

    config = small_config()
    agent = make_agent(config)
    env_factory = functools.partial(build_env, config, max_steps=MAX_STEPS)
    common = dict(workers=0, sync_every=4, seed_offset=SEED_OFFSET,
                  max_episode_steps=MAX_STEPS, checkpoint_dir=tmp_path,
                  checkpoint_every=4)
    # first leg: run half the episodes, leaving a round-boundary checkpoint
    train_agent_parallel(agent, env_factory, EPISODES // 2, **common)
    # "crash": a brand-new process would hold a fresh agent
    resumed_agent = make_agent(config)
    log = train_agent_parallel(resumed_agent, env_factory, EPISODES, **common)
    assert log.resumed_episodes == EPISODES // 2
    assert fingerprint(log, resumed_agent) == uninterrupted


def test_resume_under_different_schedule_fails_loudly(tmp_path):
    config = small_config()
    agent = make_agent(config)
    env_factory = functools.partial(build_env, config, max_steps=MAX_STEPS)
    train_agent_parallel(agent, env_factory, 4, workers=0, sync_every=4,
                         seed_offset=SEED_OFFSET,
                         max_episode_steps=MAX_STEPS,
                         checkpoint_dir=tmp_path, checkpoint_every=4)
    with pytest.raises(ScheduleMismatchError, match="sync_every"):
        train_agent_parallel(make_agent(config), env_factory, EPISODES,
                             workers=0, sync_every=2,
                             seed_offset=SEED_OFFSET,
                             max_episode_steps=MAX_STEPS,
                             checkpoint_dir=tmp_path, checkpoint_every=2)


class PoisonedLearner(PDQNAgent):
    """The factory agent, but its learner reports a NaN loss once at
    ``poison_at`` total steps (the pending set is not checkpointed, so
    the rollback does not re-arm it)."""

    def __init__(self, *args, poison_at=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.poison_steps = set(poison_at)

    def learn(self):
        losses = super().learn()
        if self.total_steps in self.poison_steps:
            self.poison_steps.discard(self.total_steps)
            return {"loss": float("nan")}
        return losses


def run_poisoned_parallel(checkpoint_dir):
    config = small_config()
    agent = PoisonedLearner(
        branched=config.branched_networks, hidden_dim=config.hidden_dim,
        gamma=config.gamma, batch_size=GOLDEN["batch_size"],
        warmup=GOLDEN["warmup"], buffer_capacity=config.replay_capacity,
        tau=config.tau, rng=default_generator(0),
        poison_at=[120])  # inside the second round of four episodes
    log = train_agent_parallel(
        agent, functools.partial(build_env, config, max_steps=MAX_STEPS),
        EPISODES, workers=0, sync_every=4, seed_offset=SEED_OFFSET,
        max_episode_steps=MAX_STEPS, checkpoint_dir=checkpoint_dir,
        checkpoint_every=4)
    return log, agent


def test_parallel_rollback_recovers_reproducibly(tmp_path):
    log, agent = run_poisoned_parallel(tmp_path / "first")
    assert log.nan_rollbacks == 1
    assert log.episodes == EPISODES
    assert all(np.isfinite(r) for r in log.episode_rewards)
    rerun = fingerprint(*run_poisoned_parallel(tmp_path / "second"))
    assert fingerprint(log, agent) == rerun


def test_a_result_under_another_policy_version_is_refused(monkeypatch):
    publish = parallel._WorkerPool.publish

    def publish_then_again(self, modules):
        version = publish(self, modules)
        # out of band, before the worker refreshes: it will hold a newer
        # policy than the round was stamped with
        self.policy.publish(modules)
        return version

    monkeypatch.setattr(parallel._WorkerPool, "publish", publish_then_again)
    with pytest.raises(StalePolicyError, match="published as 1"):
        run_parallel(1, episodes=1, sync_every=1)


def test_check_schedule_rejects_serial_checkpoints():
    with pytest.raises(ScheduleMismatchError, match="no training schedule"):
        check_schedule({"next_episode": 4}, {"root_seed": 0})


def test_check_schedule_accepts_matching_schedule():
    schedule = {"root_seed": 7, "sync_every": 8, "learn_every": 1,
                "seed_offset": 100}
    check_schedule({"schedule": dict(schedule)}, schedule)


# ----------------------------------------------------------------------
# reorder buffer
# ----------------------------------------------------------------------
def _result(episode: int) -> EpisodeResult:
    return EpisodeResult(generation=0, episode=episode, worker_id=0,
                         payload=None)


def test_reorder_buffer_emits_canonical_order():
    reorder = ReorderBuffer(next_episode=3)
    for episode in (6, 4, 5):  # out-of-order arrivals
        reorder.put(_result(episode))
    assert reorder.take() is None  # 3 has not arrived
    reorder.put(_result(3))
    emitted = []
    while (result := reorder.take()) is not None:
        emitted.append(result.episode)
    assert emitted == [3, 4, 5, 6]
    assert len(reorder) == 0


def test_reorder_buffer_reset_discards_pending():
    reorder = ReorderBuffer()
    reorder.put(_result(0))
    reorder.put(_result(1))
    reorder.reset(next_episode=0)
    assert reorder.take() is None
    assert len(reorder) == 0
