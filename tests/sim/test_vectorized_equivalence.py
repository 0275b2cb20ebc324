"""Golden-trace equivalence: vectorized engine vs scalar oracle.

The vectorized step (``SimulationEngine.step``) must produce
**bit-identical** trajectories to the scalar per-vehicle loop kept as
the test oracle ``tests/oracles/engine.py``.  These tests run paired
engines from identical seeds
through hundreds of steps and require exact equality (``==`` on floats,
no tolerance) of every vehicle's lane, position, and speed at every
step, plus identical collision and retirement records.

Scenarios cover the axes the vectorized code branches on: traffic
density (neighbor structure), all three car-following models (Krauss,
IDM, ACC), the CV-only benchmark scene, and scripted AV maneuvers that
exercise the pending-command, conflict-arbitration, and mixed
AV/CV masking paths.
"""

import numpy as np
import pytest

from repro.sim import ACC, IDM, Road, build_episode
from repro.sim.scenarios import dense_platoon
from tests.oracles.engine import as_scalar, snapshot


def assert_lockstep(reference, vectorized, steps, command=None):
    """Step both engines ``steps`` times, demanding exact equality each step.

    ``command(engine, av_vid, step)`` optionally issues the same scripted
    AV maneuver to both engines before each step.
    """
    assert snapshot(reference) == snapshot(vectorized)
    for step in range(steps):
        if command is not None:
            command(reference, step)
            command(vectorized, step)
        reference.step()
        vectorized.step()
        assert snapshot(reference) == snapshot(vectorized), \
            f"diverged at step {step}"


def paired_episodes(seed, **kwargs):
    ref_engine, ref_av = build_episode(seed, **kwargs)
    vec_engine, vec_av = build_episode(seed, **kwargs)
    assert ref_av.vid == vec_av.vid
    return as_scalar(ref_engine), vec_engine, ref_av.vid


@pytest.mark.parametrize("density", [60.0, 120.0, 180.0])
def test_krauss_density_sweep(density):
    """Default Krauss model across sparse, medium, and packed traffic."""
    reference, vectorized, _ = paired_episodes(
        seed=int(density), density_per_km=density)
    assert_lockstep(reference, vectorized, steps=200)


@pytest.mark.parametrize("model_factory, seed", [(IDM, 11), (ACC, 12)])
def test_alternative_car_following_models(model_factory, seed):
    reference, vectorized, _ = paired_episodes(
        seed=seed, car_following=model_factory(), density_per_km=120.0)
    assert_lockstep(reference, vectorized, steps=200)


def test_dense_platoon_benchmark_scene():
    """The CV-only benchmark workload: 30 vehicles, no retirements."""
    reference = as_scalar(dense_platoon(seed=7))
    vectorized = dense_platoon(seed=7)
    assert_lockstep(reference, vectorized, steps=200)


def test_scripted_av_maneuvers():
    """Pending AV commands, lane conflicts, and mixed masking paths.

    The AV weaves across lanes on a fixed schedule, forcing the
    vectorized step through the pending-maneuver branch, the
    changer-vs-changer conflict arbitration, and the conventional-mask
    merges every few steps.
    """
    reference, vectorized, av_vid = paired_episodes(seed=3, density_per_km=150.0)

    def command(engine, step):
        av = engine.vehicles.get(av_vid)
        if av is None:
            return
        delta = (0, 1, 0, -1)[(step // 5) % 4]
        if not engine.road.is_valid_lane(av.lane + delta):
            delta = 0
        accel = 1.5 if step % 2 == 0 else -0.5
        engine.set_maneuver(av_vid, delta, accel)

    assert_lockstep(reference, vectorized, steps=200, command=command)


def test_short_road_retirement_path():
    """Vehicles retire off the road end identically in both engines."""
    road = Road(length=400.0)
    reference, _ = build_episode(21, road=road, density_per_km=100.0)
    vec_road = Road(length=400.0)
    vectorized, _ = build_episode(21, road=vec_road, density_per_km=100.0)
    as_scalar(reference)
    assert_lockstep(reference, vectorized, steps=150)


def test_rng_stream_stays_aligned():
    """After lockstep stepping, both engines' RNGs are in the same state."""
    reference = as_scalar(dense_platoon(seed=5))
    vectorized = dense_platoon(seed=5)
    assert_lockstep(reference, vectorized, steps=60)
    ref_next = reference.rng.random(4)
    vec_next = vectorized.rng.random(4)
    np.testing.assert_array_equal(ref_next, vec_next)
