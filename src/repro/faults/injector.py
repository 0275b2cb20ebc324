"""Fault realization at the sensor and actuator boundaries.

:class:`FaultInjector` turns a :class:`~repro.faults.schedule.FaultSchedule`
into concrete per-step events.  It is deliberately stateful -- bursts
and freezes latch across steps -- and deterministic: the event stream
is a pure function of ``(schedule.seed, episode_seed)``, drawn from its
own ``numpy`` Generator so the simulator's, sensor's and agent's RNG
streams are untouched.  With an all-zero schedule every filter method
returns its input unchanged without drawing randomness, so fault-free
runs are bit-identical to a build without this module.

:class:`FaultySensor` composes an injector with any
:class:`~repro.perception.sensor.Sensor`-like object, keeping the
``observe`` signature, so the rest of the perception stack is unaware
faults exist.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..perception.sensor import Sensor, WorldArrays, clamp_measurement
from ..seeding import default_generator
from ..sim import constants
from ..sim.road import Road
from ..sim.vehicle import VehicleState
from .schedule import FaultSchedule

__all__ = ["FaultLog", "FaultInjector", "FaultySensor"]


@dataclass
class FaultLog:
    """Counters of every fault event fired since the last reset."""

    dropped: int = 0
    frozen: int = 0
    spiked: int = 0
    delayed: int = 0
    actions_delayed: int = 0
    actions_clamped: int = 0

    def total(self) -> int:
        return (self.dropped + self.frozen + self.spiked + self.delayed
                + self.actions_delayed + self.actions_clamped)

    def as_dict(self) -> dict[str, int]:
        return {"dropped": self.dropped, "frozen": self.frozen,
                "spiked": self.spiked, "delayed": self.delayed,
                "actions_delayed": self.actions_delayed,
                "actions_clamped": self.actions_clamped}

    def merge(self, other: "FaultLog") -> None:
        """Accumulate another log's counters into this one."""
        self.dropped += other.dropped
        self.frozen += other.frozen
        self.spiked += other.spiked
        self.delayed += other.delayed
        self.actions_delayed += other.actions_delayed
        self.actions_clamped += other.actions_clamped


@dataclass
class _TrackFaults:
    """Latched fault state of one observed vehicle id."""

    dropout_left: int = 0
    freeze_left: int = 0
    frozen_state: VehicleState | None = None
    history: deque = field(default_factory=deque)


class FaultInjector:
    """Apply a :class:`FaultSchedule` to observations and actuator commands.

    Call :meth:`reset` at episode start (the driving environment does
    this automatically when wired with ``faults=``), then
    :meth:`filter_observation` once per sensor frame and
    :meth:`filter_accel` / :meth:`filter_action` once per command.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.log = FaultLog()
        self._rng = default_generator(schedule.seed)
        self._tracks: dict[str, _TrackFaults] = {}
        self._last_accel: float | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self, episode_seed: int = 0) -> None:
        """Start a fresh episode: new event stream, cleared latches.

        The stream is seeded from ``(schedule.seed, episode_seed)`` so
        episode k of a run always replays the same faults regardless of
        what happened in episodes 0..k-1.
        """
        self._rng = default_generator([self.schedule.seed, episode_seed])
        self._tracks.clear()
        self._last_accel = None
        self.log = FaultLog()

    # ------------------------------------------------------------------
    # sensor boundary
    # ------------------------------------------------------------------
    def filter_observation(self, observed: dict[str, VehicleState],
                           road: Road) -> dict[str, VehicleState]:
        """Degrade one sensor frame according to the schedule.

        Vehicles are processed in sorted-id order so the event stream is
        independent of dict insertion order.  Dropped vehicles are
        removed from the frame entirely -- the tracker then ages the
        track out and phantom construction fills the hole, exactly the
        paper's structural-degradation path.
        """
        schedule = self.schedule
        if schedule.is_zero():
            return observed
        result: dict[str, VehicleState] = {}
        for vid in sorted(observed):
            state = observed[vid]
            track = self._tracks.setdefault(vid, _TrackFaults())
            track.history.append(state)
            while len(track.history) > schedule.latency_steps + 1:
                track.history.popleft()

            if track.dropout_left > 0:
                track.dropout_left -= 1
                self.log.dropped += 1
                continue
            if schedule.dropout_rate and self._rng.random() < schedule.dropout_rate:
                track.dropout_left = schedule.dropout_burst - 1
                self.log.dropped += 1
                continue

            if track.freeze_left > 0 and track.frozen_state is not None:
                track.freeze_left -= 1
                self.log.frozen += 1
                result[vid] = track.frozen_state
                continue
            delivered = state
            if (schedule.latency_rate and len(track.history) > 1
                    and self._rng.random() < schedule.latency_rate):
                delivered = track.history[0]
                self.log.delayed += 1
            if schedule.noise_rate and self._rng.random() < schedule.noise_rate:
                delivered = self._spike(delivered, road)
                self.log.spiked += 1
            if schedule.freeze_rate and self._rng.random() < schedule.freeze_rate:
                track.freeze_left = schedule.freeze_duration - 1
                track.frozen_state = delivered
                self.log.frozen += 1
            result[vid] = delivered
        for vid in list(self._tracks):
            if vid not in observed:
                del self._tracks[vid]
        return result

    def _spike(self, state: VehicleState, road: Road) -> VehicleState:
        noisy = VehicleState(
            lat=state.lat,
            lon=state.lon + float(self._rng.normal(0.0, self.schedule.noise_position)),
            v=state.v + float(self._rng.normal(0.0, self.schedule.noise_velocity)),
        )
        return clamp_measurement(noisy, road)

    # ------------------------------------------------------------------
    # actuator boundary
    # ------------------------------------------------------------------
    def filter_accel(self, accel: float) -> float:
        """Degrade one commanded acceleration (delay and/or clamp)."""
        schedule = self.schedule
        if schedule.is_zero():
            return accel
        executed = accel
        if (schedule.actuator_delay_rate and self._last_accel is not None
                and self._rng.random() < schedule.actuator_delay_rate):
            executed = self._last_accel
            self.log.actions_delayed += 1
        if (schedule.actuator_clamp_rate
                and self._rng.random() < schedule.actuator_clamp_rate):
            limit = min(schedule.actuator_clamp_limit, constants.A_MAX)
            clamped = float(np.clip(executed, -limit, limit))
            if clamped != executed:
                self.log.actions_clamped += 1
            executed = clamped
        self._last_accel = accel
        return executed

    def filter_action(self, action):
        """ParameterizedAction variant of :meth:`filter_accel`.

        The import is local to keep this package free of a hard
        dependency edge into :mod:`repro.decision`.
        """
        executed = self.filter_accel(action.accel)
        if executed == action.accel:
            return action
        from ..decision.pamdp import ParameterizedAction
        return ParameterizedAction(action.behavior, executed)


class FaultySensor:
    """A :class:`Sensor` with a :class:`FaultInjector` at its output.

    Drop-in replacement anywhere a sensor is expected: ``observe`` runs
    the wrapped sensor and then degrades the frame; every other
    attribute (``detection_range``, noise parameters, geometry helpers)
    is delegated to the wrapped sensor.
    """

    def __init__(self, base: Sensor, injector: FaultInjector) -> None:
        self.base = base
        self.injector = injector

    def observe(self, ego_id: str, ego: VehicleState,
                world: dict[str, VehicleState] | WorldArrays,
                road: Road) -> dict[str, VehicleState]:
        observed = self.base.observe(ego_id, ego, world, road)
        return self.injector.filter_observation(observed, road)

    def __getattr__(self, name: str):
        return getattr(self.base, name)
