"""Configuration for the HEAD framework.

Defaults reproduce the paper's Section V-A settings; the scaled-down
profile used by tests and benchmarks (shorter road, fewer episodes) is
available through :meth:`HEADConfig.scaled`, keeping the full-scale
setup one call away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..decision.reward import RewardWeights
from ..sim import constants

__all__ = ["HEADConfig"]


@dataclass(frozen=True)
class HEADConfig:
    """All knobs of the HEAD framework in one place."""

    # Environment (paper Section V-A)
    road_length: float = constants.ROAD_LENGTH
    num_lanes: int = constants.NUM_LANES
    density_per_km: float = constants.DENSITY_PER_KM
    max_episode_steps: int = 2000

    # Enhanced perception
    sensor_range: float = constants.SENSOR_RANGE
    history_steps: int = constants.HISTORY_STEPS
    attention_dim: int = 64
    lstm_dim: int = 64
    use_phantoms: bool = True
    use_prediction: bool = True
    perception_epochs: int = 15
    perception_batch_size: int = 64
    perception_lr: float = 1e-3

    # Maneuver decision
    branched_networks: bool = True
    hidden_dim: int = 64
    gamma: float = 0.9
    replay_capacity: int = 20_000
    batch_size: int = 64
    tau: float = 0.01
    training_episodes: int = 4_000
    reward_weights: RewardWeights = field(default_factory=RewardWeights)

    @staticmethod
    def paper() -> "HEADConfig":
        """The exact Section V-A configuration."""
        return HEADConfig()

    def scaled(self, road_length: float = 600.0, density_per_km: float = 120.0,
               training_episodes: int = 60, max_episode_steps: int = 160,
               attention_dim: int = 32, lstm_dim: int = 32,
               hidden_dim: int = 32, replay_capacity: int = 10_000,
               perception_epochs: int = 15) -> "HEADConfig":
        """A CPU-friendly profile preserving every code path.

        Used by tests and default benchmark runs; see DESIGN.md for the
        substitution rationale.
        """
        return replace(self, road_length=road_length, density_per_km=density_per_km,
                       training_episodes=training_episodes,
                       max_episode_steps=max_episode_steps,
                       attention_dim=attention_dim, lstm_dim=lstm_dim,
                       hidden_dim=hidden_dim, replay_capacity=replay_capacity,
                       perception_epochs=perception_epochs)
