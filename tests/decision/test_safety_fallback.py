"""Tests for the TTC-gated SafetyFallbackPolicy and front_ttc."""

from dataclasses import dataclass, field

import pytest

from repro.decision import LaneBehavior, ParameterizedAction
from repro.decision.policies import Controller
from repro.decision.safety import SafetyFallbackPolicy, front_ttc
from repro.perception.phantom import SceneNode, TrackKind
from repro.sim import VehicleState, constants


def observed_target(state):
    return SceneNode(TrackKind.OBSERVED, "front", state.lat, state.lon, state.v)


@dataclass
class FakeScene:
    """``targets`` maps areas to nodes; an absent area is a zero node."""

    targets: dict = field(default_factory=dict)

    def node(self, area, sub_area=0):
        return self.targets.get(area, SceneNode(TrackKind.ZERO, None, 0, 0.0, 0.0))


@dataclass
class FakeFrame:
    scene: FakeScene


@dataclass
class FakeEnv:
    frame: FakeFrame | None
    av: VehicleState | None


class ConstantPolicy(Controller):
    name = "constant"

    def __init__(self, action):
        self.action = action
        self.began = 0

    def begin_episode(self):
        self.began += 1

    def select_action(self, env, state):
        return self.action


def env_with_front(gap, front_v, av_v=20.0):
    av = VehicleState(3, 100.0, av_v)
    front = VehicleState(3, 100.0 + constants.VEHICLE_LENGTH + gap, front_v)
    scene = FakeScene(targets={2: observed_target(front)})
    return FakeEnv(frame=FakeFrame(scene=scene), av=av)


CRUISE = ParameterizedAction(LaneBehavior.KEEP, 1.0)


# ----------------------------------------------------------------------
# front_ttc
# ----------------------------------------------------------------------
def test_ttc_none_without_frame_or_av():
    assert front_ttc(FakeEnv(frame=None, av=VehicleState(3, 0.0, 10.0))) is None
    assert front_ttc(FakeEnv(frame=FakeFrame(FakeScene()), av=None)) is None


def test_ttc_none_without_front_target():
    env = FakeEnv(frame=FakeFrame(FakeScene(targets={})),
                  av=VehicleState(3, 0.0, 10.0))
    assert front_ttc(env) is None


def test_ttc_ignores_zero_padding_targets():
    env = env_with_front(gap=5.0, front_v=0.0)
    targets = env.frame.scene.targets
    targets[2] = targets[2]._replace(kind=TrackKind.ZERO)
    assert front_ttc(env) is None


def test_ttc_none_when_gap_is_opening():
    assert front_ttc(env_with_front(gap=20.0, front_v=25.0, av_v=15.0)) is None


def test_ttc_zero_on_contact():
    assert front_ttc(env_with_front(gap=0.2, front_v=0.0)) == 0.0


def test_ttc_is_gap_over_closing_speed():
    env = env_with_front(gap=30.0, front_v=10.0, av_v=20.0)
    assert front_ttc(env) == pytest.approx(3.0)


# ----------------------------------------------------------------------
# SafetyFallbackPolicy
# ----------------------------------------------------------------------
def test_nominal_driving_passes_through():
    inner = ConstantPolicy(CRUISE)
    policy = SafetyFallbackPolicy(inner)
    env = env_with_front(gap=100.0, front_v=19.0, av_v=20.0)  # TTC 100 s
    assert policy.select_action(env, state=None) is CRUISE
    assert policy.overrides == 0


def test_low_ttc_triggers_emergency_braking():
    policy = SafetyFallbackPolicy(ConstantPolicy(CRUISE), ttc_brake=1.5)
    env = env_with_front(gap=10.0, front_v=10.0, av_v=20.0)  # TTC 1 s
    action = policy.select_action(env, state=None)
    assert action.behavior is LaneBehavior.KEEP
    assert action.accel == -constants.A_MAX
    assert policy.overrides == 1


def test_degraded_confidence_widens_the_threshold():
    class FakeGuard:
        last_confidence = 1.0

    guard = FakeGuard()
    policy = SafetyFallbackPolicy(ConstantPolicy(CRUISE), guard=guard,
                                  ttc_brake=1.5, ttc_degraded=3.0)
    env = env_with_front(gap=20.0, front_v=10.0, av_v=20.0)  # TTC 2 s
    assert policy.select_action(env, state=None) is CRUISE  # healthy: no brake
    guard.last_confidence = 0.5  # degraded: 2 s < 3 s -> brake
    assert policy.select_action(env, state=None).accel == -constants.A_MAX
    assert policy.overrides == 1


def test_begin_episode_reaches_the_inner_controller():
    inner = ConstantPolicy(CRUISE)
    policy = SafetyFallbackPolicy(inner)
    policy.begin_episode()
    assert inner.began == 1
    assert policy.name == "constant+fallback"
