"""Microbenchmarks: scalar vs fast simulation paths (BENCH_sim.json).

Two cases, each timed only after asserting bit-identity:

- ``step``: the canonical hot-path workload -- ``dense_platoon`` with
  30 conventional vehicles stepped 200 times -- under the scalar engine
  oracle (``tests/oracles/engine.py``) and the library's vectorized
  step, whose trajectories and collision records must match for the
  entire run;
- ``reset``: ``build_episode`` on the paper's 3 km road at 180 veh/km,
  with the scalar spawn oracle (``tests/oracles/spawn.py``) against the
  block-drawn ``populate_traffic``, whose worlds and generator states
  must match.

Measurement is interleaved (scalar, fast, scalar, ...) and the reported
speedup is the ratio of best-of-N wall times, which is robust to the
machine-noise spikes that plague mean-of-N on shared hardware (see
``benchmarks/_bench_io.py`` for the shared methodology helpers).  The
cases that ran are written together to ``BENCH_sim.json`` at the repo
root; the speedup gates are informational in CI.
"""

import time
from dataclasses import astuple
from pathlib import Path

import pytest

from _bench_io import interleaved_best, write_bench
from repro.sim import Road, build_episode
from repro.sim.scenarios import dense_platoon
from tests.oracles import spawn as spawn_oracle
from tests.oracles.engine import as_scalar

pytestmark = pytest.mark.perf

STEPS = 200
SIZE = 30
SEED = 7
REPEATS = 8

RESET = {"road_m": 3000.0, "density_per_km": 180, "seeds": 5, "repeats": 8}

#: Cases measured in this pytest run, written together to BENCH_sim.json.
RESULTS: dict[str, dict] = {}


def record(case: str, result: dict) -> Path:
    RESULTS[case] = result
    return write_bench("sim", dict(RESULTS),
                       config={name: RESULTS[name]["workload"] for name in RESULTS})


def workload(scalar: bool):
    engine = dense_platoon(seed=SEED, size=SIZE)
    return as_scalar(engine) if scalar else engine


def trace(scalar: bool):
    """Full per-step trajectory of the workload, for exact comparison."""
    engine = workload(scalar)
    states = []
    for _ in range(STEPS):
        engine.step()
        states.append([(vid, vehicle.state.lat, vehicle.state.lon,
                        vehicle.state.v)
                       for vid, vehicle in sorted(engine.vehicles.items())])
    return states, list(engine.collisions)


def timed_run(scalar: bool) -> float:
    """Wall time of stepping the workload once (engine build excluded)."""
    engine = workload(scalar)
    start = time.perf_counter()
    for _ in range(STEPS):
        engine.step()
    return time.perf_counter() - start


def test_vectorized_speedup():
    ref_trace, ref_collisions = trace(scalar=True)
    vec_trace, vec_collisions = trace(scalar=False)
    assert vec_trace == ref_trace, "vectorized trajectories diverged"
    assert vec_collisions == ref_collisions

    scalar_times, vector_times = [], []
    for _ in range(REPEATS):
        scalar_times.append(timed_run(scalar=True))
        vector_times.append(timed_run(scalar=False))

    scalar_best = min(scalar_times)
    vector_best = min(vector_times)
    speedup = scalar_best / vector_best

    result = {
        "workload": {"scenario": "dense_platoon", "vehicles": SIZE,
                     "steps": STEPS, "seed": SEED, "repeats": REPEATS},
        "bit_identical": True,
        "scalar_best_s": scalar_best,
        "vectorized_best_s": vector_best,
        "scalar_per_step_us": scalar_best / STEPS * 1e6,
        "vectorized_per_step_us": vector_best / STEPS * 1e6,
        "speedup": speedup,
        "scalar_times_s": scalar_times,
        "vectorized_times_s": vector_times,
    }
    path = record("step", result)
    print(f"\nBENCH_sim: scalar {result['scalar_per_step_us']:.0f}us/step, "
          f"vectorized {result['vectorized_per_step_us']:.0f}us/step, "
          f"speedup {speedup:.2f}x -> {path.name}")

    assert speedup >= 3.0, f"vectorized speedup {speedup:.2f}x below 3x target"


def spawned_world(engine):
    return ([(vehicle.vid, vehicle.lane, vehicle.lon, vehicle.v,
              astuple(vehicle.profile)) for vehicle in engine.vehicles.values()],
            engine.rng.bit_generator.state)


def test_block_drawn_reset_speedup():
    road = Road(length=RESET["road_m"])
    density = RESET["density_per_km"]
    seeds = range(RESET["seeds"])
    for seed in seeds:
        engine, _ = build_episode(seed, road=road, density_per_km=density)
        assert spawned_world(engine) == spawned_world(
            spawn_oracle.build_episode(seed, road, density)), seed

    best = interleaved_best({
        "scalar": lambda: [spawn_oracle.build_episode(seed, road, density)
                           for seed in seeds],
        "block": lambda: [build_episode(seed, road=road, density_per_km=density)
                          for seed in seeds],
    }, repeats=RESET["repeats"])
    speedup = best["scalar"] / best["block"]
    path = record("reset", {
        "workload": {"scenario": "build_episode", **RESET},
        "bit_identical": True,
        "scalar_per_reset_ms": best["scalar"] / len(seeds) * 1e3,
        "block_per_reset_ms": best["block"] / len(seeds) * 1e3,
        "speedup": speedup,
    })
    print(f"\nBENCH_sim reset: scalar {best['scalar'] / len(seeds) * 1e3:.1f}ms, "
          f"block {best['block'] / len(seeds) * 1e3:.1f}ms, "
          f"speedup {speedup:.2f}x -> {path.name}")

    assert speedup >= 2.0, f"block-drawn reset speedup {speedup:.2f}x below 2x target"
