"""Maneuver decision module: PAMDP, hybrid reward, BP-DQN and comparators."""

from .pamdp import (LaneBehavior, ParameterizedAction, AugmentedState,
                    build_augmented_state, CURRENT_SHAPE, FUTURE_SHAPE)
from .reward import RewardWeights, StepOutcome, RewardBreakdown, HybridReward
from .environment import StepRecord, EpisodeResult, DrivingEnv
from .fleet import FleetStepRecord, FleetEpisodeResult, FleetEnv, FleetController
from .replay import Transition, Batch, ReplayBuffer
from .networks import (BranchEncoder, BranchedXNetwork, BranchedQNetwork,
                       VanillaXNetwork, VanillaQNetwork, NUM_BEHAVIORS)
from .agents import EpsilonSchedule, PamdpAgent, PDQNAgent, PQPAgent, PDDPGAgent
from .policies import (Controller, AgentController, RuleBasedPolicy, IDMLCPolicy,
                       ACCLCPolicy, TPBTSPolicy, DISCRETE_ACCELS)
from .drlsc import DRLSCAgent, DRLSCController, MANEUVERS
from .safety import SafetyFallbackPolicy, front_ttc, front_ttc_from_graph
from .trainer import RLTrainingLog, train_agent, NaNLossError, CHECKPOINT_NAME

__all__ = [
    "LaneBehavior", "ParameterizedAction", "AugmentedState",
    "build_augmented_state", "CURRENT_SHAPE", "FUTURE_SHAPE",
    "RewardWeights", "StepOutcome", "RewardBreakdown", "HybridReward",
    "StepRecord", "EpisodeResult", "DrivingEnv",
    "FleetStepRecord", "FleetEpisodeResult", "FleetEnv", "FleetController",
    "Transition", "Batch", "ReplayBuffer",
    "BranchEncoder", "BranchedXNetwork", "BranchedQNetwork",
    "VanillaXNetwork", "VanillaQNetwork", "NUM_BEHAVIORS",
    "EpsilonSchedule", "PamdpAgent", "PDQNAgent", "PQPAgent", "PDDPGAgent",
    "Controller", "AgentController", "RuleBasedPolicy", "IDMLCPolicy",
    "ACCLCPolicy", "TPBTSPolicy", "DISCRETE_ACCELS",
    "DRLSCAgent", "DRLSCController", "MANEUVERS",
    "SafetyFallbackPolicy", "front_ttc", "front_ttc_from_graph",
    "RLTrainingLog", "train_agent", "NaNLossError", "CHECKPOINT_NAME",
]
