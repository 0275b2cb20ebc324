"""Simultaneous multi-AV maneuvers: arbitration + engine equivalence.

An M-vehicle fleet issues its lane commands synchronously from the
state at ``t``, so two AVs can legitimately claim the same target gap.
``SimulationEngine.step`` arbitrates in sorted-vid
order (wave 2: AV-vs-AV only); these tests pin the arbitration outcome
on constructed scenes -- under the vectorized engine and the scalar
oracle (``tests/oracles/engine.py``, parameter ``True``) -- and run
scripted multi-AV fleets through both in lockstep, demanding
bit-identical worlds every step.
"""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.road import Road
from repro.sim.spawn import build_episode, build_fleet_episode, fleet_vids
from repro.sim.vehicle import Vehicle, VehicleState
from tests.oracles.engine import ScalarEngine, as_scalar, snapshot


def make_engine(scalar):
    return (ScalarEngine if scalar else SimulationEngine)(road=Road(length=1000.0))


def make_av(vid, lane, lon, v=20.0):
    return Vehicle(vid=vid, state=VehicleState(lat=lane, lon=lon, v=v),
                   is_autonomous=True)


@pytest.mark.parametrize("scalar", [False, True])
def test_av_vs_av_same_gap_first_vid_wins(scalar):
    """Two AVs converge on one gap: sorted-vid order decides."""
    engine = make_engine(scalar)
    engine.add_vehicle(make_av("av", lane=1, lon=100.0))
    engine.add_vehicle(make_av("av1", lane=3, lon=100.0))
    engine.set_maneuver("av", +1, 0.0)
    engine.set_maneuver("av1", -1, 0.0)
    engine.step()
    # "av" sorts first, claims lane 2; "av1" overlaps that claim and
    # aborts (keeps lane 3) instead of crashing into the winner.
    assert engine.get("av").lane == 2
    assert engine.get("av1").lane == 3
    assert engine.collisions == []


@pytest.mark.parametrize("scalar", [False, True])
def test_non_overlapping_av_changes_both_succeed(scalar):
    """Same target lane but disjoint intervals: both changes go through."""
    engine = make_engine(scalar)
    engine.add_vehicle(make_av("av", lane=1, lon=100.0))
    engine.add_vehicle(make_av("av1", lane=3, lon=200.0))
    engine.set_maneuver("av", +1, 0.0)
    engine.set_maneuver("av1", -1, 0.0)
    engine.step()
    assert engine.get("av").lane == 2
    assert engine.get("av1").lane == 2
    assert engine.collisions == []


@pytest.mark.parametrize("scalar", [False, True])
def test_av_change_into_lane_keeping_av_aborts(scalar):
    """A lane-keeping AV's claim blocks a mover (wave 1 vs wave 2)."""
    engine = make_engine(scalar)
    engine.add_vehicle(make_av("av", lane=2, lon=100.0))
    engine.add_vehicle(make_av("av1", lane=1, lon=100.0))
    engine.set_maneuver("av", 0, 0.0)
    engine.set_maneuver("av1", +1, 0.0)
    engine.step()
    assert engine.get("av").lane == 2
    assert engine.get("av1").lane == 1
    assert engine.collisions == []


def converging_commands(engine, av_ids, step):
    """Scripted fleet weave repeatedly steering neighbors at each other."""
    for position, vid in enumerate(av_ids):
        av = engine.vehicles.get(vid)
        if av is None:
            continue
        phase = (step // 3 + position) % 4
        delta = (0, 1, -1, 0)[phase]
        if not engine.road.is_valid_lane(av.lane + delta):
            delta = -delta if engine.road.is_valid_lane(av.lane - delta) \
                else 0
        accel = 1.0 if (step + position) % 2 == 0 else -1.0
        engine.set_maneuver(vid, delta, accel)


@pytest.mark.parametrize("num_avs, seed", [(2, 31), (4, 32), (8, 33)])
def test_fleet_lockstep_reference_vs_vectorized(num_avs, seed):
    """Scripted converging fleets: both engines agree bit for bit."""
    ref_engine, _ = build_fleet_episode(seed, num_avs=num_avs,
                                        density_per_km=120.0)
    vec_engine, _ = build_fleet_episode(seed, num_avs=num_avs,
                                        density_per_km=120.0)
    as_scalar(ref_engine)
    av_ids = fleet_vids(num_avs)
    assert snapshot(ref_engine) == snapshot(vec_engine)
    for step in range(150):
        converging_commands(ref_engine, av_ids, step)
        converging_commands(vec_engine, av_ids, step)
        ref_engine.step()
        vec_engine.step()
        assert snapshot(ref_engine) == snapshot(vec_engine), \
            f"diverged at step {step}"


def test_fleet_spawn_is_deterministic_and_disjoint():
    """Fleet spawns: canonical ids, distinct positions, M=1 unchanged."""
    engine, avs = build_fleet_episode(17, num_avs=4, density_per_km=100.0)
    assert [av.vid for av in avs] == fleet_vids(4)
    assert all(engine.get(av.vid).is_autonomous for av in avs)
    spots = {(av.lane, av.lon) for av in avs}
    assert len(spots) == 4
    single_engine, (lone,) = build_fleet_episode(17, num_avs=1,
                                                 density_per_km=100.0)
    classic_engine, classic_av = build_episode(17, density_per_km=100.0)
    assert lone.vid == classic_av.vid == "av"
    assert snapshot(single_engine) == snapshot(classic_engine)
