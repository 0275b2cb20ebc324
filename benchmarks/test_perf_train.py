"""Training-throughput benchmark: serial vs actor-learner (BENCH_train.json).

Measures decision-training throughput (environment steps per second,
episodes per hour) for the serial loop and the parallel trainer at
1, 2, and 4 actor workers, after first asserting what parallelism must
never change: the consumed transition stream (chained SHA-256) and the
final weights are bitwise identical at every worker count.

The workload learns every 4th environment step: at ``learn_every=1``
the optimizer step dominates wall time and Amdahl caps any actor-side
speedup well below the gate regardless of implementation quality --
the parallel trainer exists to scale *experience generation*, so the
workload is weighted the way real sweeps run it.

The ≥2.5x throughput gate (4 workers vs serial) is enforced only when
the machine actually has ≥4 CPU cores; on smaller hosts the numbers
are still recorded but the gate is marked unenforced with the reason,
rather than asserting physics the hardware cannot deliver.

Each repeat runs every contender once, back to back
(``_bench_io.interleaved_best``), and times its training loop (the
log's ``wall_time``: no agent, env or worker set-up).  The ledger keeps
each contender's best and, beside it, the spread of its repeats.

Profiles (select with ``REPRO_BENCH_TRAIN_PROFILE``, default ``full``):

- ``full``  -- 24 episodes x 24 steps, 5 interleaved timing repeats;
- ``smoke`` -- 8 episodes x 16 steps, 1 repeat (CI).
"""

import functools
import hashlib
import os
import statistics
from dataclasses import replace

import numpy as np
import pytest

from _bench_io import interleaved_best, write_bench
from repro.core.config import HEADConfig
from repro.decision.trainer import train_agent
from repro.train import build_agent, build_env, train_agent_parallel
from repro.train.sync import policy_modules

pytestmark = pytest.mark.perf

PROFILES = {
    "full": {"episodes": 24, "max_steps": 24, "repeats": 5},
    "smoke": {"episodes": 8, "max_steps": 16, "repeats": 1},
}
PROFILE_NAME = os.environ.get("REPRO_BENCH_TRAIN_PROFILE", "full")
PROFILE = PROFILES[PROFILE_NAME]

LEARN_EVERY = 4
SYNC_EVERY = 4
SEED_OFFSET = 100
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_GATE = 2.5
GATE_WORKERS = 4
MIN_CORES_FOR_GATE = 4


def bench_config() -> HEADConfig:
    config = HEADConfig().scaled(
        road_length=400.0, density_per_km=100.0,
        max_episode_steps=PROFILE["max_steps"], attention_dim=16,
        lstm_dim=16, hidden_dim=16, replay_capacity=512)
    return replace(config, use_prediction=False)


def make_agent(config: HEADConfig):
    agent = build_agent(config)
    agent.warmup = 16
    agent.batch_size = 8
    return agent


def weights_digest(agent) -> str:
    flat = np.concatenate([module.store()[0]
                           for module in policy_modules(agent)])
    return hashlib.sha256(flat.tobytes()).hexdigest()


def run_serial():
    config = bench_config()
    agent = make_agent(config)
    log = train_agent(agent, build_env(config), episodes=PROFILE["episodes"],
                      seed_offset=SEED_OFFSET, learn_every=LEARN_EVERY,
                      max_episode_steps=PROFILE["max_steps"])
    return log, agent


def run_parallel(workers: int):
    config = bench_config()
    agent = make_agent(config)
    log = train_agent_parallel(
        agent, functools.partial(build_env, config,
                                 max_steps=PROFILE["max_steps"]),
        PROFILE["episodes"], workers=workers,
        agent_factory=functools.partial(build_agent, config, learner=False),
        sync_every=SYNC_EVERY, learn_every=LEARN_EVERY,
        seed_offset=SEED_OFFSET, max_episode_steps=PROFILE["max_steps"])
    return log, agent


def throughput(log, seconds: list[float]) -> dict:
    """Rates at the best repeat, and the repeats' spread.

    ``spread`` is the distance between the quartiles of the repeats'
    seconds as a share of their median (null with fewer than 2).
    """
    steps, best = sum(log.episode_steps), min(seconds)
    spread = None
    if len(seconds) > 1:
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        spread = round((q3 - q1) / median, 4)
    return {
        "env_steps": steps,
        "wall_seconds": round(best, 4),
        "env_steps_per_sec": round(steps / best, 2),
        "episodes_per_hour": round(len(log.episode_rewards) / best * 3600.0, 1),
        "repeats": len(seconds),
        "spread": spread,
    }


def test_train_throughput():
    cores = os.cpu_count() or 1

    # -- correctness first: N-invariance of the parallel schedule ------
    reference_log, reference_agent = run_parallel(0)
    reference = (reference_log.transition_digest,
                 weights_digest(reference_agent))
    assert reference[0] is not None

    # -- timing: interleaved best-of-repeats per contender -------------
    logs = {}

    def serial_log():
        logs["serial"] = run_serial()[0]
        return logs["serial"]

    def parallel(workers: int):
        log, agent = run_parallel(workers)
        assert (log.transition_digest, weights_digest(agent)) == reference, (
            f"workers={workers} broke the determinism contract")
        logs[workers] = log
        return log

    contenders = {"serial": serial_log,
                  **{workers: functools.partial(parallel, workers)
                     for workers in WORKER_COUNTS}}
    samples: dict = {}
    interleaved_best(contenders, PROFILE["repeats"], samples=samples,
                     seconds_of=lambda log: log.wall_time)
    serial = throughput(logs["serial"], samples["serial"])
    rates = {workers: throughput(logs[workers], samples[workers])
             for workers in WORKER_COUNTS}
    speedup = (rates[GATE_WORKERS]["env_steps_per_sec"]
               / serial["env_steps_per_sec"])

    enforced = cores >= MIN_CORES_FOR_GATE
    gate = {
        "threshold": SPEEDUP_GATE,
        "workers": GATE_WORKERS,
        "measured_speedup": round(speedup, 3),
        "enforced": enforced,
        "reason": ("enforced: host has enough cores for the gate"
                   if enforced else
                   f"not enforced: host has {cores} CPU core(s); a "
                   f"{SPEEDUP_GATE}x speedup at {GATE_WORKERS} workers "
                   "requires >= 4"),
    }

    write_bench("train", {
        "profile": PROFILE_NAME,
        "cpu_cores": cores,
        "determinism": {
            "invariant_across_workers": [0, *WORKER_COUNTS],
            "transition_digest": reference[0],
            "weights_sha256": reference[1],
        },
        "serial": serial,
        "parallel": {str(workers): rate for workers, rate in rates.items()},
        "speedup_vs_serial": {
            str(workers): round(rate["env_steps_per_sec"]
                                / serial["env_steps_per_sec"], 3)
            for workers, rate in rates.items()},
        "gate": gate,
    }, config={"profile": PROFILE_NAME, **PROFILE,
               "learn_every": LEARN_EVERY, "sync_every": SYNC_EVERY,
               "seed_offset": SEED_OFFSET})

    if enforced:
        assert speedup >= SPEEDUP_GATE, (
            f"{GATE_WORKERS}-worker training reached only {speedup:.2f}x "
            f"serial throughput (gate: {SPEEDUP_GATE}x)")
