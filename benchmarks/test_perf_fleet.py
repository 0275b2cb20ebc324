"""Fleet scaling benchmark: M HEAD agents, one engine (BENCH_fleet.json).

Sweeps fleet size M x traffic volume N and measures steps/sec of the
full perceive -> decide -> step loop under :class:`FleetEnv` with a
batched :class:`FleetController`.  The quantity that must improve with
M is the **per-AV step cost**: one engine step, one stacked LST-GAT
forward and one batched Q-network forward are shared by the whole
fleet, so per-AV cost falls as M grows even though total work rises.

The gate pins the headline claim: at the reference traffic volume, the
per-AV step cost at M=16 must be at most 0.35x the M=1 per-AV cost.

Profiles (select with ``REPRO_BENCH_FLEET_PROFILE``, default ``full``):

- ``full``:  M in {1, 4, 16, 64}, N in {50, 200, 1000}, 30 steps x3;
- ``smoke``: M in {1, 4, 16},     N in {50, 200},       20 steps x2
  (the CI configuration -- same grid shape, under a minute).

Both profiles assert the gate.  Each cell is one wall-clock rollout,
best of the repeats, so on a shared host the ratio moves by several
hundredths between runs of the same code; CI runs the smoke profile
as a non-blocking job for that reason.

The result is written to ``BENCH_fleet.json`` at the repo root.
"""

import os
import time

import pytest

from _bench_io import write_bench
from repro.decision.agents import PDQNAgent
from repro.decision.fleet import FleetController, FleetEnv
from repro.decision.pamdp import LaneBehavior, ParameterizedAction
from repro.perception.lstgat import LSTGAT
from repro.perception.module import EnhancedPerception
from repro.perception.sensor import Sensor
from repro.seeding import default_generator
from repro.sim.road import Road

pytestmark = pytest.mark.perf

SEED = 11
ROAD_LENGTH = 1000.0
GATE_VEHICLES = 200   # the N at which the M=16 vs M=1 gate is checked
GATE_RATIO = 0.35

PROFILES = {
    "full": {"fleet_sizes": (1, 4, 16, 64),
             "vehicle_counts": (50, 200, 1000),
             "steps": 30, "repeats": 3},
    "smoke": {"fleet_sizes": (1, 4, 16),
              "vehicle_counts": (50, 200),
              "steps": 20, "repeats": 2},
}
PROFILE_NAME = os.environ.get("REPRO_BENCH_FLEET_PROFILE", "full")
PROFILE = PROFILES[PROFILE_NAME]


def build_fleet(num_avs: int, vehicles: int, steps: int
                ) -> tuple[FleetEnv, FleetController]:
    """One shared predictor + agent; fresh per-AV trackers (fleet setup)."""
    predictor = LSTGAT(attention_dim=32, lstm_dim=32, history_steps=5,
                       rng=default_generator(1234))
    perceptions = [EnhancedPerception(predictor=predictor, sensor=Sensor())
                   for _ in range(num_avs)]
    env = FleetEnv(perceptions, road=Road(length=ROAD_LENGTH),
                   density_per_km=vehicles / (ROAD_LENGTH / 1000.0),
                   max_steps=steps + 6)
    controller = FleetController(PDQNAgent(rng=default_generator(99)))
    return env, controller


def safe_follow(env: FleetEnv, vid: str) -> ParameterizedAction:
    """Scripted lane-keeping car-follower executed in place of the policy.

    The benchmark times the *real* batched policy forward every step,
    but executes this deterministic safe maneuver instead: an untrained
    agent crashes within a few steps, which would collapse the M=1
    rollout to a handful of warmup-dominated samples and make the
    per-AV cost comparison across fleet sizes meaningless.
    """
    av = env.av(vid)
    leader = env.engine.leader_of(av)
    if leader is not None and av.gap_to(leader) < 30.0:
        return ParameterizedAction(LaneBehavior.from_delta(0), -2.0)
    return ParameterizedAction(LaneBehavior.from_delta(0), 1.0)


def timed_rollout(num_avs: int, vehicles: int, steps: int
                  ) -> tuple[float, int, int]:
    """Wall time of one rollout (world construction and warmup excluded).

    Returns ``(elapsed_s, engine_steps, av_steps)`` where ``av_steps``
    sums the active fleet size over the executed steps -- the correct
    denominator when AVs finish or crash mid-run.  One untimed step
    absorbs first-call costs (index builds, cache warmup) so short
    configurations are not biased.
    """
    env, controller = build_fleet(num_avs, vehicles, steps)
    states = env.reset(SEED)
    controller.select_actions(states)
    states, _, done, _ = env.step({vid: safe_follow(env, vid)
                                   for vid in states})
    executed = 0
    av_steps = 0
    start = time.perf_counter()
    while states and executed < steps:
        actions = controller.select_actions(states)
        av_steps += len(actions)
        states, _, done, _ = env.step({vid: safe_follow(env, vid)
                                       for vid in states})
        executed += 1
        if done:
            break
    elapsed = time.perf_counter() - start
    return elapsed, executed, av_steps


def test_fleet_scaling():
    grid = []
    per_av_us = {}   # (M, N) -> best-of per-AV step cost in microseconds
    for vehicles in PROFILE["vehicle_counts"]:
        for num_avs in PROFILE["fleet_sizes"]:
            best = float("inf")
            best_run = None
            for _ in range(PROFILE["repeats"]):
                elapsed, executed, av_steps = timed_rollout(
                    num_avs, vehicles, PROFILE["steps"])
                assert executed > 0 and av_steps > 0
                cost = elapsed / av_steps
                if cost < best:
                    best = cost
                    best_run = (elapsed, executed, av_steps)
            elapsed, executed, av_steps = best_run
            per_av_us[(num_avs, vehicles)] = best * 1e6
            grid.append({
                "avs": num_avs,
                "vehicles": vehicles,
                "engine_steps": executed,
                "av_steps": av_steps,
                "steps_per_sec": executed / elapsed,
                "av_steps_per_sec": av_steps / elapsed,
                "per_av_step_us": best * 1e6,
            })
            print(f"\n  M={num_avs:>3} N={vehicles:>5}: "
                  f"{executed / elapsed:7.1f} steps/s, "
                  f"{best * 1e6:9.0f} us per AV-step")

    gate_n = (GATE_VEHICLES if GATE_VEHICLES in PROFILE["vehicle_counts"]
              else PROFILE["vehicle_counts"][-1])
    ratio = None
    if 16 in PROFILE["fleet_sizes"] and 1 in PROFILE["fleet_sizes"]:
        ratio = per_av_us[(16, gate_n)] / per_av_us[(1, gate_n)]

    result = {
        "workload": {"profile": PROFILE_NAME, "seed": SEED,
                     "road_length_m": ROAD_LENGTH,
                     "fleet_sizes": list(PROFILE["fleet_sizes"]),
                     "vehicle_counts": list(PROFILE["vehicle_counts"]),
                     "steps": PROFILE["steps"],
                     "repeats": PROFILE["repeats"]},
        "grid": grid,
        "gate": {"vehicles": gate_n, "threshold": GATE_RATIO,
                 "per_av_ratio_m16_vs_m1": ratio},
    }
    path = write_bench("fleet", result, config=result["workload"])
    if ratio is not None:
        print(f"\nBENCH_fleet: per-AV cost ratio M=16/M=1 at N={gate_n}: "
              f"{ratio:.3f} (gate <= {GATE_RATIO}) -> {path.name}")
        assert ratio <= GATE_RATIO, (
            f"per-AV step cost at M=16 is {ratio:.2f}x the M=1 cost "
            f"(gate: <= {GATE_RATIO}x); fleet batching is not amortizing")
