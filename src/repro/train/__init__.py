"""Actor-learner parallel training (``repro.train``).

One learner process plus N actor workers generating experience under a
round-based synchronous schedule that makes the learning curve a pure
function of ``(root_seed, sync_every, learn_every, seed_offset,
max_episode_steps)`` -- bitwise invariant in the worker count.  See
``docs/training.md``.
"""

from .factories import build_agent, build_env, predictor_state
from .parallel import (ReorderBuffer, StalePolicyError, WorkerCrashError,
                       train_agent_parallel)
from .sync import SharedPolicy, policy_modules
from .worker import (CollectSink, EpisodeResult, EpisodeTask, WorkerOptions,
                     run_episode, worker_main)

__all__ = [
    "train_agent_parallel", "ReorderBuffer", "WorkerCrashError",
    "StalePolicyError",
    "SharedPolicy", "policy_modules",
    "WorkerOptions", "EpisodeTask", "EpisodeResult", "CollectSink",
    "run_episode", "worker_main",
    "build_env", "build_agent", "predictor_state",
]
