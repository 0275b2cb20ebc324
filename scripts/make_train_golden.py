"""Regenerate the serial-training golden learning-curve fixture.

The fixture ``tests/train/golden/serial_curve.json`` pins the exact
behaviour of the *serial* ``train_agent`` loop -- per-episode rewards
and step counts plus a digest of the final network weights -- recorded
at the last commit before the loop was refactored around the shared
``EpisodeRunner``.  ``tests/train/test_parallel_training.py`` asserting
against it proves two things at once: the refactor left the serial path
bit-identical, and the parallel trainer's N=1 schedule is being
compared against the genuine pre-refactor article, not against a moving
target.

Run from the repo root::

    PYTHONPATH=src python scripts/make_train_golden.py

Only regenerate the fixture on a *deliberate*, reviewed change to the
training mathematics -- never to make a failing equivalence test pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.core.config import HEADConfig
from repro.decision.trainer import train_agent
from repro.train.factories import build_agent, build_env
from repro.train.sync import policy_modules

import numpy as np

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "tests" / "train" / "golden" / "serial_curve.json")

#: Fixture workload: prediction off (the decision loop is what is being
#: pinned; LST-GAT has its own golden trace), small nets, enough steps
#: past the warmup that optimizer updates shape the curve.
EPISODES = 8
MAX_STEPS = 24
SEED_OFFSET = 100
WARMUP = 16
BATCH_SIZE = 8


def golden_config() -> HEADConfig:
    config = HEADConfig().scaled(
        road_length=400.0, density_per_km=100.0,
        max_episode_steps=MAX_STEPS, attention_dim=16, lstm_dim=16,
        hidden_dim=16, replay_capacity=512)
    return replace(config, use_prediction=False)


def weights_digest(agent) -> str:
    flat = np.concatenate([module.store()[0]
                           for module in policy_modules(agent)])
    return hashlib.sha256(flat.tobytes()).hexdigest()


def main() -> None:
    config = golden_config()
    agent = build_agent(config)
    agent.warmup = WARMUP
    agent.batch_size = BATCH_SIZE
    env = build_env(config)
    log = train_agent(agent, env, episodes=EPISODES, seed_offset=SEED_OFFSET,
                      max_episode_steps=MAX_STEPS)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({
        "episodes": EPISODES,
        "max_steps": MAX_STEPS,
        "seed_offset": SEED_OFFSET,
        "warmup": WARMUP,
        "batch_size": BATCH_SIZE,
        "episode_rewards": log.episode_rewards,
        "episode_steps": log.episode_steps,
        "collisions": log.collisions,
        "weights_sha256": weights_digest(agent),
    }, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    print(f"  rewards: {[round(r, 4) for r in log.episode_rewards]}")
    print(f"  weights: {weights_digest(agent)[:16]}...")


if __name__ == "__main__":
    main()
