"""Perception behaviour on the scripted scenarios (integration-level)."""

import numpy as np
import pytest

from repro.decision import build_augmented_state
from repro.perception import EnhancedPerception, TrackKind
from repro.sim.scenarios import blocked_lane, cut_in, platoon, stop_and_go_wave


def perceive(engine, steps=5):
    perception = EnhancedPerception(predictor=None)
    frame = None
    for _ in range(steps):
        if "av" in engine.vehicles:
            engine.set_maneuver("av", 0, 0.0)
        frame = perception.perceive(engine, "av")
        engine.step()
    return frame


def test_platoon_front_target_is_leader():
    engine, av = platoon()
    frame = perceive(engine)
    front = frame.scene.node(2)
    assert front.kind is TrackKind.OBSERVED
    assert front.vid == "p0"


def test_blocked_lane_scene_shows_slow_platoon():
    engine, av = blocked_lane(platoon_speed=6.0)
    frame = perceive(engine)
    front = frame.scene.node(2)
    assert front.kind is TrackKind.OBSERVED
    assert front.v < 10.0
    # Left lane (area 1) has no observed vehicle: phantom or boundary.
    assert frame.scene.node(1).kind.is_phantom


def test_cut_in_merger_becomes_same_lane_target():
    engine, av = cut_in()
    perception = EnhancedPerception(predictor=None)
    same_lane_ids = []
    for _ in range(10):
        if "av" in engine.vehicles:
            engine.set_maneuver("av", 0, 0.0)
        frame = perception.perceive(engine, "av")
        same_lane_ids.append(frame.scene.node(2).vid)  # front
        same_lane_ids.append(frame.scene.node(5).vid)  # rear
        engine.step()
    # After merging, the merger occupies the AV's lane as a target.
    assert "merger" in same_lane_ids


def test_wave_scene_augmented_state_reflects_slowdown():
    engine, av = stop_and_go_wave(platoon_size=4)
    perception = EnhancedPerception(predictor=None)
    # Let the wave develop so the AV's front target is braking.
    relative_speeds = []
    for _ in range(40):
        if "av" not in engine.vehicles:
            break
        engine.set_maneuver("av", 0, 0.0)
        frame = perception.perceive(engine, "av")
        state = build_augmented_state(frame)
        if frame.scene.node(2).kind is TrackKind.OBSERVED:
            relative_speeds.append(state.current[2, 2])  # front target v_rel
        engine.step()
    assert relative_speeds
    # At some point the front target was clearly slower than the AV.
    assert min(relative_speeds) < 0.0


def test_occlusion_happens_inside_platoon():
    """In a tight single-lane platoon the leader-of-leader is hidden."""
    engine, av = platoon(size=5, headway=20.0)
    frame = perceive(engine, steps=2)
    node = frame.scene.node(2, 2)
    assert node.kind in (TrackKind.PHANTOM_OCCLUSION, TrackKind.OBSERVED)
    if node.kind is TrackKind.PHANTOM_OCCLUSION:
        # Eq. 6 placement: beyond the front target.
        assert node.lon > frame.scene.node(2).lon
