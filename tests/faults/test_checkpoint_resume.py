"""Tests for atomic training checkpoints, resume, and NaN rollback."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import HEAD, HEADConfig
from repro.decision import (PDQNAgent, PDDPGAgent, NaNLossError, Transition,
                            train_agent)
from repro.decision import trainer
from repro.decision.trainer import CHECKPOINT_NAME
from repro.faults import (CheckpointError, latest_checkpoint, load_checkpoint,
                          save_checkpoint)
from repro.faults.checkpoint import ScheduleMismatchError
from repro.train import train_agent_parallel


def make_head(max_steps=20, seed=3, hidden_dim=32):
    cfg = replace(HEADConfig().scaled(max_episode_steps=max_steps,
                                      hidden_dim=hidden_dim),
                  use_prediction=False)
    head = HEAD(cfg, rng=np.random.default_rng(seed))
    # lower the learning gate so optimizer state is exercised within
    # the handful of short episodes these tests can afford
    head.agent.warmup = 10
    head.agent.batch_size = 8
    return head


class PoisonedAgent(PDQNAgent):
    """Returns a NaN loss once at a chosen total step count.

    The pending-poison bookkeeping is a set, which the introspective
    checkpoint deliberately ignores -- so a rollback does not re-arm
    the poison and the restored run can get past the divergence.
    """

    def __init__(self, *args, poison_at=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.poison_steps = set(poison_at)

    def learn(self):
        losses = super().learn()
        if self.total_steps in self.poison_steps:
            self.poison_steps.discard(self.total_steps)
            return {"loss": float("nan")}
        return losses


def make_poisoned(poison_at, seed=3):
    head = make_head(seed=seed)
    cfg = head.config
    agent = PoisonedAgent(branched=cfg.branched_networks,
                          hidden_dim=cfg.hidden_dim, gamma=cfg.gamma,
                          batch_size=8, warmup=10,
                          buffer_capacity=cfg.replay_capacity, tau=cfg.tau,
                          rng=np.random.default_rng(99),
                          poison_at=poison_at)
    return agent, head.make_env()


# ----------------------------------------------------------------------
# save / load round trip
# ----------------------------------------------------------------------
def test_round_trip_restores_parameters_and_rng(tmp_path):
    source = make_head(seed=1)
    train_agent(source.agent, source.make_env(), episodes=2, seed_offset=0)
    path = tmp_path / "agent.ckpt.npz"
    save_checkpoint(path, source.agent, extra={"tag": 7})

    target = make_head(seed=2)  # different init, different RNG position
    extra = load_checkpoint(path, target.agent)
    assert extra == {"tag": 7}
    for (name, p_src), (_, p_dst) in zip(source.agent.x_net.named_parameters(),
                                         target.agent.x_net.named_parameters()):
        assert np.array_equal(p_src.data, p_dst.data), name
    assert (target.agent.rng.bit_generator.state
            == source.agent.rng.bit_generator.state)
    assert target.agent.total_steps == source.agent.total_steps


def test_rng_restore_preserves_buffer_sharing(tmp_path):
    source = make_head(seed=1)
    train_agent(source.agent, source.make_env(), episodes=1, seed_offset=0)
    path = tmp_path / "agent.ckpt.npz"
    save_checkpoint(path, source.agent)
    target = make_head(seed=2)
    load_checkpoint(path, target.agent)
    # the buffer samples from the agent's stream; restoring in place
    # must keep them the same Generator object
    assert target.agent.buffer.rng is target.agent.rng


def test_never_filled_agent_round_trips_without_storage(tmp_path):
    source = make_head(seed=1)
    path = save_checkpoint(tmp_path / "agent.ckpt.npz", source.agent)
    assert source.agent.buffer.nbytes == 0
    # a target that holds transitions drops them on restore
    target = make_head(seed=2)
    target.agent.observe(Transition(
        state=target.make_env().reset(0), behavior=2, accel=0.0, reward=0.0,
        next_state=None, done=True))
    load_checkpoint(path, target.agent)
    assert len(target.agent.buffer) == 0
    assert target.agent.buffer.nbytes == 0
    assert target.agent.total_steps == 0
    restored = target.agent.buffer.state()
    for key, array in source.agent.buffer.state().items():
        assert np.array_equal(restored[key], array), key


def test_save_is_atomic_and_leaves_no_temp_files(tmp_path):
    head = make_head()
    path = tmp_path / CHECKPOINT_NAME
    save_checkpoint(path, head.agent)
    save_checkpoint(path, head.agent)  # overwrite in place
    assert sorted(p.name for p in tmp_path.iterdir()) == [CHECKPOINT_NAME]
    assert latest_checkpoint(tmp_path) == path


def test_load_rejects_non_checkpoint_files(tmp_path):
    path = tmp_path / "junk.ckpt.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, make_head().agent)


def test_load_rejects_a_version_1_archive(tmp_path):
    head = make_head()
    path = save_checkpoint(tmp_path / "agent.ckpt.npz", head.agent)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode("utf-8"))
    meta["version"] = 1
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path, head.agent)


def test_load_rejects_a_different_agent_class(tmp_path):
    head = make_head()
    path = tmp_path / "agent.ckpt.npz"
    save_checkpoint(path, head.agent)
    other = PDDPGAgent(hidden_dim=32, rng=np.random.default_rng(0))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, other)


def test_load_rejects_a_different_architecture(tmp_path):
    path = tmp_path / "agent.ckpt.npz"
    save_checkpoint(path, make_head(hidden_dim=32).agent)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, make_head(hidden_dim=16).agent)


# ----------------------------------------------------------------------
# resume reproducibility
# ----------------------------------------------------------------------
def test_resume_reproduces_the_uninterrupted_run(tmp_path):
    reference = make_head()
    ref_log = train_agent(reference.agent, reference.make_env(),
                          episodes=6, seed_offset=0)

    first = make_head()
    train_agent(first.agent, first.make_env(), episodes=3, seed_offset=0,
                checkpoint_dir=tmp_path, checkpoint_every=1)

    resumed = make_head()  # a *fresh* process, state only from disk
    log = train_agent(resumed.agent, resumed.make_env(), episodes=6,
                      seed_offset=0, checkpoint_dir=tmp_path,
                      checkpoint_every=1)
    assert log.resumed_episodes == 3
    assert log.episode_rewards == ref_log.episode_rewards
    assert log.episode_steps == ref_log.episode_steps
    assert log.collisions == ref_log.collisions


def test_resume_false_ignores_the_checkpoint(tmp_path):
    first = make_head()
    train_agent(first.agent, first.make_env(), episodes=2, seed_offset=0,
                checkpoint_dir=tmp_path, checkpoint_every=1)
    fresh = make_head()
    log = train_agent(fresh.agent, fresh.make_env(), episodes=2,
                      seed_offset=0, checkpoint_dir=tmp_path,
                      checkpoint_every=1, resume=False)
    assert log.resumed_episodes == 0
    assert log.episodes == 2


def test_completed_run_resumes_to_a_no_op(tmp_path):
    head = make_head()
    train_agent(head.agent, head.make_env(), episodes=3, seed_offset=0,
                checkpoint_dir=tmp_path, checkpoint_every=1)
    again = make_head()
    log = train_agent(again.agent, again.make_env(), episodes=3,
                      seed_offset=0, checkpoint_dir=tmp_path,
                      checkpoint_every=1)
    assert log.resumed_episodes == 3
    assert log.episodes == 3  # nothing new trained


# ----------------------------------------------------------------------
# NaN rollback
# ----------------------------------------------------------------------
def test_nan_loss_without_checkpoint_raises():
    agent, env = make_poisoned(poison_at=[5])
    with pytest.raises(NaNLossError):
        train_agent(agent, env, episodes=2, seed_offset=0)


def test_nan_loss_rolls_back_to_the_last_checkpoint(tmp_path):
    agent, env = make_poisoned(poison_at=[30])
    log = train_agent(agent, env, episodes=4, seed_offset=0,
                      checkpoint_dir=tmp_path, checkpoint_every=1)
    assert log.nan_rollbacks == 1
    assert log.episodes == 4
    assert all(np.isfinite(r) for r in log.episode_rewards)


def test_rollback_never_restores_another_runs_checkpoint(tmp_path):
    agent, env = make_poisoned(poison_at=[])
    train_agent(agent, env, episodes=3, seed_offset=0,
                checkpoint_dir=tmp_path, checkpoint_every=1)
    # a fresh run over the finished run's file diverges before its own
    # first save: nothing of its own to roll back to
    agent, env = make_poisoned(poison_at=[5])
    with pytest.raises(NaNLossError):
        train_agent(agent, env, episodes=4, seed_offset=0,
                    checkpoint_dir=tmp_path, checkpoint_every=1, resume=False)


def test_rollback_budget_is_finite(tmp_path):
    # poison every learn step from 25 on: rollback can never get past it
    agent, env = make_poisoned(poison_at=range(25, 400))
    with pytest.raises(NaNLossError):
        train_agent(agent, env, episodes=6, seed_offset=0,
                    checkpoint_dir=tmp_path, checkpoint_every=1,
                    max_nan_rollbacks=2)


def test_resume_after_a_rollback_reproduces_the_uninterrupted_run(tmp_path):
    agent, env = make_poisoned(poison_at=[30, 70])
    reference = train_agent(agent, env, episodes=6, seed_offset=0,
                            checkpoint_dir=tmp_path / "reference",
                            checkpoint_every=1)
    assert reference.nan_rollbacks == 2

    agent, env = make_poisoned(poison_at=[30])
    train_agent(agent, env, episodes=3, seed_offset=0,
                checkpoint_dir=tmp_path / "run", checkpoint_every=1)
    # a fresh process: the restored rollback count keeps both the budget
    # and the jitter draw of the second divergence
    agent, env = make_poisoned(poison_at=[70])
    log = train_agent(agent, env, episodes=6, seed_offset=0,
                      checkpoint_dir=tmp_path / "run", checkpoint_every=1)
    assert log.resumed_episodes == 3
    assert log.nan_rollbacks == reference.nan_rollbacks
    assert log.episode_rewards == reference.episode_rewards
    assert log.episode_steps == reference.episode_steps


def test_wall_time_after_a_rollback_counts_no_time_twice(tmp_path,
                                                        monkeypatch):
    # a fake clock that ticks once per environment step: the run's wall
    # time is the checkpointed line plus the time since the restore, so
    # it equals the steps of the kept episodes exactly
    agent, env = make_poisoned(poison_at=[30])
    clock = [0.0]
    env_step = env.step

    def timed_step(action):
        clock[0] += 1.0
        return env_step(action)

    monkeypatch.setattr(env, "step", timed_step)
    monkeypatch.setattr(trainer.time, "perf_counter", lambda: clock[0])
    log = train_agent(agent, env, episodes=4, seed_offset=0,
                      checkpoint_dir=tmp_path, checkpoint_every=1)
    assert log.nan_rollbacks == 1
    assert clock[0] > sum(log.episode_steps)  # the rollback wasted steps
    assert log.wall_time == pytest.approx(sum(log.episode_steps))


# ----------------------------------------------------------------------
# schedule records
# ----------------------------------------------------------------------
def test_serial_resume_refuses_a_parallel_checkpoint(tmp_path):
    head = make_head()
    train_agent_parallel(head.agent, head.make_env, 2, workers=0,
                         sync_every=1, seed_offset=0,
                         checkpoint_dir=tmp_path, checkpoint_every=1)
    again = make_head()
    with pytest.raises(ScheduleMismatchError, match="trainer"):
        train_agent(again.agent, again.make_env(), episodes=4,
                    seed_offset=0, checkpoint_dir=tmp_path,
                    checkpoint_every=1)


def test_serial_resume_refuses_a_changed_learn_every(tmp_path):
    head = make_head()
    train_agent(head.agent, head.make_env(), episodes=2, seed_offset=0,
                checkpoint_dir=tmp_path, checkpoint_every=1)
    again = make_head()
    with pytest.raises(ScheduleMismatchError, match="learn_every"):
        train_agent(again.agent, again.make_env(), episodes=4,
                    seed_offset=0, learn_every=3, checkpoint_dir=tmp_path,
                    checkpoint_every=1)
