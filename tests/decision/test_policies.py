"""Focused tests for the rule-based and search-based decision baselines."""

from unittest import mock

import numpy as np
import pytest

from repro.decision import (ACCLCPolicy, DrivingEnv, HybridReward, IDMLCPolicy,
                            LaneBehavior, TPBTSPolicy)
from repro.perception import EnhancedPerception, LSTGAT
from repro.sim import Road, SimulationEngine, Vehicle, VehicleState
from repro.sim.vehicle import DriverProfile


def scripted_env(vehicles, num_lanes=3, length=600.0, predictor=None):
    """Environment reset onto an exact hand-placed scene."""
    env = DrivingEnv(EnhancedPerception(predictor=predictor),
                     reward=HybridReward(), road=Road(length=length,
                                                      num_lanes=num_lanes),
                     density_per_km=0, max_steps=50)
    engine = SimulationEngine(road=env.road, rng=np.random.default_rng(0))
    for vid, lane, lon, v in vehicles:
        engine.add_vehicle(Vehicle(vid, VehicleState(lane, lon, v),
                                   is_autonomous=(vid == "av"),
                                   profile=DriverProfile(imperfection=0.0)))
    # The scene replaces the seeded spawn; reset itself runs unchanged.
    scene = (engine, [engine.get("av")])
    with mock.patch("repro.decision.fleet.build_fleet_episode",
                    return_value=scene):
        state = env.reset(0)
    return env, state


class TestRuleBased:
    def test_free_road_accelerates(self):
        env, state = scripted_env([("av", 2, 100.0, 15.0)])
        action = IDMLCPolicy().select_action(env, state)
        assert action.behavior is LaneBehavior.KEEP
        assert action.accel > 0

    def test_slow_leader_triggers_braking_or_lane_change(self):
        env, state = scripted_env([("av", 2, 100.0, 20.0),
                                   ("slow", 2, 118.0, 5.0),
                                   ("l1", 1, 118.0, 5.0),
                                   ("r1", 3, 118.0, 5.0)])
        action = IDMLCPolicy().select_action(env, state)
        # All lanes blocked by slow traffic: must brake in lane.
        assert action.behavior is LaneBehavior.KEEP
        assert action.accel < 0

    def test_lane_change_to_empty_lane(self):
        env, state = scripted_env([("av", 2, 100.0, 20.0),
                                   ("slow", 2, 125.0, 6.0)])
        policy = IDMLCPolicy()
        policy.begin_episode()
        action = policy.select_action(env, state)
        assert action.behavior in (LaneBehavior.LEFT, LaneBehavior.RIGHT)

    def test_cooldown_blocks_consecutive_changes(self):
        env, state = scripted_env([("av", 2, 100.0, 20.0),
                                   ("slow", 2, 125.0, 6.0)])
        policy = IDMLCPolicy()
        policy.begin_episode()
        first = policy.select_action(env, state)
        assert first.behavior is not LaneBehavior.KEEP
        second = policy.select_action(env, state)
        assert second.behavior is LaneBehavior.KEEP

    def test_acc_lc_uses_acc_longitudinal(self):
        env, state = scripted_env([("av", 2, 100.0, 15.0),
                                   ("lead", 2, 140.0, 15.0)])
        action = ACCLCPolicy().select_action(env, state)
        assert abs(action.accel) <= 3.0


class TestTPBTS:
    def test_free_road_prefers_full_throttle(self):
        env, state = scripted_env([("av", 2, 100.0, 15.0)])
        action = TPBTSPolicy().select_action(env, state)
        assert action.behavior is LaneBehavior.KEEP
        assert action.accel == pytest.approx(3.0)

    def test_blocked_ahead_brakes_or_changes(self):
        env, state = scripted_env([("av", 2, 100.0, 20.0),
                                   ("wall", 2, 116.0, 1.4)])
        action = TPBTSPolicy().select_action(env, state)
        assert action.behavior is not LaneBehavior.KEEP or action.accel < 0

    def test_everything_blocked_falls_back_to_hard_brake(self):
        env, state = scripted_env([("av", 2, 100.0, 25.0),
                                   ("w2", 2, 112.0, 1.4),
                                   ("w1", 1, 112.0, 1.4),
                                   ("w3", 3, 112.0, 1.4),
                                   ("r1", 1, 96.0, 25.0),
                                   ("r3", 3, 96.0, 25.0)])
        action = TPBTSPolicy().select_action(env, state)
        assert action.behavior is LaneBehavior.KEEP
        assert action.accel == pytest.approx(-3.0)

    def test_uses_trained_predictor_when_present(self):
        predictor = LSTGAT(attention_dim=16, lstm_dim=16,
                           rng=np.random.default_rng(0))
        env, state = scripted_env([("av", 2, 100.0, 15.0),
                                   ("lead", 2, 130.0, 14.0)],
                                  predictor=predictor)
        action = TPBTSPolicy().select_action(env, state)
        assert action.behavior in LaneBehavior
        assert abs(action.accel) <= 3.0

    def test_never_steers_off_road(self):
        env, state = scripted_env([("av", 1, 100.0, 20.0),
                                   ("slow", 1, 125.0, 5.0)], num_lanes=1)
        action = TPBTSPolicy().select_action(env, state)
        assert action.behavior is LaneBehavior.KEEP
