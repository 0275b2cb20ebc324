"""Single-AV episodes the golden trace does not cover, pinned bit for bit.

``golden_single_av_trace.json`` drives one collision-free, fault-free
episode.  The two paths it leaves open are pinned here, each as a
``(count, sha256)`` fingerprint recorded before ``DrivingEnv`` became a
one-AV view of :class:`~repro.decision.fleet.FleetEnv`: an episode that
ends in an AV collision, and one under sensor and actuator faults from
one :class:`~repro.faults.injector.FaultInjector`.

A fingerprint covers every step's action, reward terms, step record
(floats as ``float.hex()``) and augmented-state bytes, the
:class:`~repro.decision.environment.EpisodeResult` flags, the fault log,
and the final world: the last state of every live and retired
vehicle handle, the retired ids and every collision event.
"""

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum

import pytest

from repro.decision.environment import DrivingEnv
from repro.decision.fleet import FleetEnv
from repro.decision.pamdp import AugmentedState, LaneBehavior, ParameterizedAction
from repro.faults import FaultInjector, FaultSchedule, FaultySensor, PerceptionGuard
from repro.perception.lstgat import LSTGAT
from repro.perception.module import EnhancedPerception
from repro.perception.sensor import Sensor
from repro.seeding import default_generator
from repro.sim.road import Road

CRASH_FINGERPRINT = (
    37, "86392f9039ec2f0fb757542b559b993d6fc6ccd5b99c27591685e6dc40a8dc56")
FAULT_FINGERPRINT = (
    61, "b15ceaf5881a815fb7fa94cc7418837915666ca2e60f6e008adb69b9dc680902")

FAULTS = FaultSchedule(dropout_rate=0.1, noise_rate=0.1, latency_rate=0.1,
                       actuator_delay_rate=0.3, actuator_clamp_rate=0.3,
                       actuator_clamp_limit=1.0, seed=3)


def scripted(pattern, period, accels):
    """Lane deltas from ``pattern``, switched every ``period`` steps
    (kept when off-road), with the accelerations cycling."""
    def action(step, lane, road):
        delta = pattern[(step // period) % len(pattern)]
        if not road.is_valid_lane(lane + delta):
            delta = 0
        return ParameterizedAction(LaneBehavior.from_delta(delta),
                                   accels[step % len(accels)])
    return action


#: Full-throttle cut-ins in front of traffic until the AV crashes.
CUT_IN = scripted((0, 1, 1, 0, -1, -1), 3, (1.0, 3.0, 3.0))
WEAVE = scripted((0, 1, 0, -1), 5, (2.5, -2.0))


def encode(value):
    """JSON-ready ``value``: floats as ``float.hex()``, augmented states
    as the SHA-256 of their arrays, dataclasses as their field lists."""
    if isinstance(value, AugmentedState):
        return hashlib.sha256(value.current.tobytes() + value.future.tobytes()
                              + value.target_mask.tobytes()).hexdigest()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if is_dataclass(value):
        return [encode(getattr(value, field.name)) for field in fields(value)]
    return value


def predictor():
    return LSTGAT(attention_dim=16, lstm_dim=16, history_steps=5,
                  rng=default_generator(77))


def fingerprint(env, seed, script, faults=None):
    """Drive one episode; ``(rows, sha256)`` of everything it produced."""
    rows = [encode(env.reset(seed))]
    while not env.done():
        action = script(len(rows) - 1, env.av.lane, env.road)
        rows.append(encode((action, *env.step(action))))
    engine, result = env.engine, env.result
    world = {**engine.vehicles, **engine.retired}
    rows += [encode((result.finished, result.collided, result.steps,
                     result.total_reward)),
             faults.log.as_dict() if faults is not None else None,
             encode([(vid, world[vid].state) for vid in sorted(world)]),
             sorted(engine.retired), encode(engine.collisions)]
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_episode_ending_in_av_collision():
    env = DrivingEnv(EnhancedPerception(predictor=predictor()),
                     road=Road(length=600.0), density_per_km=160.0,
                     max_steps=80)
    got = fingerprint(env, 1, CUT_IN)
    assert env.result.collided and not env.result.finished
    assert got == CRASH_FINGERPRINT
    # The episode is over, so the wreck stays in the final world.
    assert env.av is not None and "av" not in env.engine.retired


def test_episode_under_actuator_and_sensor_faults():
    injector = FaultInjector(FAULTS)
    perception = EnhancedPerception(
        predictor=PerceptionGuard(predictor()),
        sensor=FaultySensor(Sensor(), injector))
    env = DrivingEnv(perception, road=Road(length=600.0),
                     density_per_km=120.0, max_steps=60, faults=injector)
    got = fingerprint(env, 5, WEAVE, faults=injector)
    assert injector.log.actions_delayed and injector.log.actions_clamped
    assert got == FAULT_FINGERPRINT


def test_fleet_rejects_actuator_faults_for_two_avs():
    perceptions = [EnhancedPerception(predictor=None) for _ in range(2)]
    with pytest.raises(ValueError, match="one-AV"):
        FleetEnv(perceptions, faults=FaultInjector(FAULTS))
