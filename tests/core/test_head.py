"""Tests for the HEAD facade, configuration, and ablation variants."""

import numpy as np
import pytest

from repro import HEAD, HEADConfig
from repro.core import (ALL_VARIANTS, full_head, head_without_bpdqn,
                        head_without_impact, head_without_lstgat,
                        head_without_pvc)
from repro.data import generate_real_dataset


@pytest.fixture
def config():
    return HEADConfig().scaled(road_length=400.0, density_per_km=100,
                               max_episode_steps=40, attention_dim=16,
                               lstm_dim=16, hidden_dim=16)


def test_paper_config_defaults():
    cfg = HEADConfig.paper()
    assert cfg.road_length == 3000.0
    assert cfg.density_per_km == 180.0
    assert cfg.training_episodes == 4000
    assert cfg.sensor_range == 100.0
    assert cfg.history_steps == 5
    assert cfg.gamma == 0.9  # reprolint: disable=naked-float-eq
    assert cfg.replay_capacity == 20_000
    assert cfg.reward_weights.safety == 0.9  # reprolint: disable=naked-float-eq
    assert cfg.reward_weights.efficiency == 0.8  # reprolint: disable=naked-float-eq
    assert cfg.reward_weights.comfort == 0.6  # reprolint: disable=naked-float-eq
    assert cfg.reward_weights.impact == 0.2  # reprolint: disable=naked-float-eq


def test_scaled_config_preserves_untouched_fields():
    cfg = HEADConfig().scaled()
    assert cfg.sensor_range == 100.0
    assert cfg.gamma == 0.9  # reprolint: disable=naked-float-eq
    assert cfg.road_length == 600.0


def test_head_wiring(config):
    head = HEAD(config, rng=np.random.default_rng(0))
    assert head.predictor is not None
    assert head.perception.use_phantoms
    assert head.agent.branched
    env = head.make_env()
    state = env.reset(0)
    action = head.agent.act(state, explore=False)
    assert abs(action.accel) <= 3.0


def test_variant_without_pvc(config):
    head = head_without_pvc(config, np.random.default_rng(0))
    assert not head.perception.use_phantoms
    assert head.predictor is not None


def test_variant_without_lstgat(config):
    head = head_without_lstgat(config, np.random.default_rng(0))
    assert head.predictor is None
    with pytest.raises(RuntimeError):
        head.train_perception(None)


def test_variant_without_bpdqn(config):
    head = head_without_bpdqn(config, np.random.default_rng(0))
    assert not head.agent.branched


def test_variant_without_impact(config):
    head = head_without_impact(config, np.random.default_rng(0))
    assert head.reward.weights.impact == 0.0
    assert head.reward.weights.safety == 0.9  # reprolint: disable=naked-float-eq


def test_all_variants_registry(config):
    assert set(ALL_VARIANTS) == {"HEAD", "HEAD-w/o-PVC", "HEAD-w/o-LST-GAT",
                                 "HEAD-w/o-BP-DQN", "HEAD-w/o-IMP"}
    for name, factory in ALL_VARIANTS.items():
        head = factory(config, np.random.default_rng(0))
        assert head.name == name


def test_train_perception_runs(config):
    head = full_head(config, np.random.default_rng(0))
    trajectories = generate_real_dataset(seed=3, steps=50, density_per_km=100)
    result = head.train_perception(trajectories, max_egos=2, epochs=2)
    assert len(result.epoch_losses) == 2
    assert np.isfinite(result.final_loss)


def test_train_decision_runs(config):
    head = full_head(config, np.random.default_rng(0))
    log = head.train_decision(episodes=2)
    assert log.episodes == 2


def test_evaluate_produces_report(config):
    head = full_head(config, np.random.default_rng(0))
    report = head.evaluate(seeds=range(2))
    assert report.episodes == 2


def test_save_load_roundtrip(tmp_path, config):
    head = full_head(config, np.random.default_rng(0))
    head.save(tmp_path / "ckpt")
    clone = full_head(config, np.random.default_rng(99))
    clone.load(tmp_path / "ckpt")
    env = head.make_env()
    state = env.reset(5)
    original = head.agent.action_values(state)
    restored = clone.agent.action_values(state)
    np.testing.assert_allclose(original[0], restored[0])
    np.testing.assert_allclose(original[1], restored[1])


def test_greedy_head_holds_no_replay_storage_until_observe():
    # an evaluating or serving HEAD never writes a transition, so it
    # must not pay for the replay arrays
    from repro.decision import Transition

    head = HEAD(HEADConfig().scaled(), rng=np.random.default_rng(0))
    buffer = head.agent.buffer
    env = head.make_env()
    state = env.reset(0)
    for _ in range(3):
        action = head.agent.act(state, explore=False)
        next_state, breakdown, done, _ = env.step(action)
        assert buffer.nbytes == 0
        if done:
            break
    assert len(buffer) == 0
    head.agent.observe(Transition(
        state=state, behavior=int(action.behavior), accel=action.accel,
        reward=breakdown.total, next_state=next_state, done=done,
        aux=head.agent.last_aux()))
    assert len(buffer) == 1
    assert buffer.nbytes > 0
