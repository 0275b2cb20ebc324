"""The HEAD framework facade: enhanced perception + maneuver decision.

Wires the two modules of Fig. 1 together behind a small API:

>>> head = HEAD(HEADConfig().scaled(), rng=np.random.default_rng(0))
>>> head.train_perception(trajectories)       # LST-GAT on recorded data
>>> head.train_decision(episodes=60)          # BP-DQN in the simulator
>>> report = head.evaluate(seeds=range(20))   # paper metrics

Ablation variants (Table II) are constructed by
:mod:`repro.core.variants`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..data.trajectories import TrajectorySet
from ..decision.agents import PDQNAgent
from ..decision.environment import DrivingEnv
from ..decision.fleet import FleetController, FleetEnv
from ..decision.policies import AgentController, Controller
from ..decision.reward import HybridReward
from ..decision.trainer import RLTrainingLog, train_agent
from ..eval.episodes import evaluate_controller
from ..eval.metrics import EvaluationReport
from ..faults.guard import PerceptionGuard
from ..nn.serialization import load_module, save_module
from ..perception.dataset import build_samples
from ..perception.lstgat import LSTGAT
from ..perception.module import EnhancedPerception
from ..perception.sensor import Sensor
from ..perception.training import TrainingResult, train_predictor
from ..sim.road import Road
from .config import HEADConfig
from ..seeding import resolve_rng

__all__ = ["HEAD"]


class HEAD(object):
    """enHanced pErception + mAneuver Decision, assembled per config."""

    def __init__(self, config: HEADConfig | None = None,
                 rng: np.random.Generator | None = None,
                 name: str = "HEAD") -> None:
        self.config = config or HEADConfig()
        self.rng = resolve_rng(rng)
        self.name = name
        cfg = self.config

        self.predictor: LSTGAT | None = None
        if cfg.use_prediction:
            self.predictor = LSTGAT(attention_dim=cfg.attention_dim,
                                    lstm_dim=cfg.lstm_dim,
                                    history_steps=cfg.history_steps,
                                    rng=self.rng)
        # The guard is bit-transparent for healthy predictions; online
        # perception consumes it in place of the raw predictor while
        # training (:meth:`train_perception`) keeps optimizing the raw
        # module directly.
        self.guard: PerceptionGuard | None = None
        if self.predictor is not None:
            self.guard = PerceptionGuard(self.predictor)
        self.perception = EnhancedPerception(
            predictor=self.guard,
            sensor=Sensor(detection_range=cfg.sensor_range),
            history_steps=cfg.history_steps,
            use_phantoms=cfg.use_phantoms,
        )
        self.reward = HybridReward(weights=cfg.reward_weights)
        self.agent = PDQNAgent(
            branched=cfg.branched_networks,
            hidden_dim=cfg.hidden_dim,
            gamma=cfg.gamma,
            batch_size=cfg.batch_size,
            buffer_capacity=cfg.replay_capacity,
            tau=cfg.tau,
            rng=self.rng,
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def road(self) -> Road:
        return Road(length=self.config.road_length, num_lanes=self.config.num_lanes)

    def make_env(self, max_steps: int | None = None) -> DrivingEnv:
        """A driving environment wired to this HEAD instance."""
        return DrivingEnv(self.perception, reward=self.reward, road=self.road(),
                          density_per_km=self.config.density_per_km,
                          max_steps=max_steps or self.config.max_episode_steps)

    def make_fleet_env(self, num_avs: int,
                       max_steps: int | None = None) -> FleetEnv:
        """A fleet environment: ``num_avs`` HEAD agents, one engine.

        Each AV gets a fresh :class:`EnhancedPerception` (trackers and
        phantom state are per-ego) sharing this instance's predictor,
        so fleet perception still runs as one stacked LST-GAT forward.
        """
        cfg = self.config
        perceptions = [
            EnhancedPerception(
                predictor=self.guard,
                sensor=Sensor(detection_range=cfg.sensor_range),
                history_steps=cfg.history_steps,
                use_phantoms=cfg.use_phantoms,
            )
            for _ in range(num_avs)
        ]
        return FleetEnv(perceptions, reward=self.reward, road=self.road(),
                        density_per_km=cfg.density_per_km,
                        max_steps=max_steps or cfg.max_episode_steps)

    def controller(self) -> Controller:
        """The trained policy as an evaluation controller."""
        return AgentController(self.agent, name=self.name)

    def fleet_controller(self) -> FleetController:
        """The trained policy batched across a fleet."""
        return FleetController(self.agent, name=f"{self.name}-fleet")

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_perception(self, trajectories: TrajectorySet,
                         max_egos: int = 8,
                         epochs: int | None = None) -> TrainingResult:
        """Train LST-GAT on recorded trajectories (paper: the REAL set)."""
        if self.predictor is None:
            raise RuntimeError("this variant has no prediction model to train")
        samples = build_samples(trajectories, max_egos=max_egos,
                                sensor=self.perception.sensor,
                                history_steps=self.config.history_steps,
                                rng=self.rng)
        return train_predictor(self.predictor, samples,
                               epochs=epochs or self.config.perception_epochs,
                               batch_size=self.config.perception_batch_size,
                               lr=self.config.perception_lr, rng=self.rng)

    def train_decision(self, episodes: int | None = None,
                       seed_offset: int = 10_000,
                       env: DrivingEnv | None = None,
                       checkpoint_dir: str | Path | None = None,
                       checkpoint_every: int = 0,
                       resume: bool = True,
                       max_episode_steps: int | None = None,
                       workers: int = 1,
                       sync_every: int = 8,
                       learn_every: int = 1) -> RLTrainingLog:
        """Train BP-DQN in the simulator (paper: 4,000 episodes).

        With ``checkpoint_dir``/``checkpoint_every`` set, the run is
        crash-safe: training state is snapshotted atomically and a
        killed process resumes to the same learning curve.

        ``workers >= 2`` switches to the actor-learner trainer
        (:mod:`repro.train`): ``workers`` processes generate episodes
        against policy snapshots refreshed every ``sync_every``
        episodes, and the learning curve is bitwise invariant in the
        worker count -- but it is a *different* schedule from the
        serial loop, which keeps learning mid-episode; ``workers=1``
        therefore stays on the serial path so existing runs reproduce.
        See ``docs/training.md`` for the contract.
        """
        episodes = episodes or self.config.training_episodes
        if workers >= 2:
            import functools

            from ..train import (build_agent, build_env, predictor_state,
                                 train_agent_parallel)
            if env is not None:
                raise ValueError("parallel training builds worker "
                                 "environments from the config; a "
                                 "pre-built env cannot be shipped to "
                                 "worker processes")
            return train_agent_parallel(
                self.agent,
                functools.partial(build_env, self.config,
                                  predictor=predictor_state(self),
                                  max_steps=max_episode_steps),
                episodes, workers=workers,
                agent_factory=functools.partial(build_agent, self.config,
                                                learner=False),
                sync_every=sync_every, learn_every=learn_every,
                seed_offset=seed_offset,
                max_episode_steps=max_episode_steps,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every, resume=resume)
        env = env or self.make_env()
        return train_agent(self.agent, env,
                           episodes=episodes,
                           seed_offset=seed_offset,
                           learn_every=learn_every,
                           checkpoint_dir=checkpoint_dir,
                           checkpoint_every=checkpoint_every,
                           resume=resume,
                           max_episode_steps=max_episode_steps)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, seeds: range | list[int],
                 env: DrivingEnv | None = None) -> EvaluationReport:
        """Run greedy test episodes and compute the paper metrics."""
        env = env or self.make_env()
        return evaluate_controller(self.controller(), env, seeds)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Checkpoint all trainable components under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self.predictor is not None:
            save_module(self.predictor, directory / "lstgat")
        save_module(self.agent.x_net, directory / "x_net")
        save_module(self.agent.q_net, directory / "q_net")
        return directory

    def load(self, directory: str | Path) -> "HEAD":
        """Restore a checkpoint produced by :meth:`save`."""
        directory = Path(directory)
        if self.predictor is not None:
            load_module(self.predictor, directory / "lstgat.npz")
        load_module(self.agent.x_net, directory / "x_net.npz")
        load_module(self.agent.q_net, directory / "q_net.npz")
        self.agent.x_target.copy_from(self.agent.x_net)
        self.agent.q_target.copy_from(self.agent.q_net)
        return self
