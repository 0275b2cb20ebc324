"""RL driving environment: engine + perception + reward behind a gym-like API.

One environment instance owns a simulated episode: the autonomous
vehicle starts at the road origin among dense conventional traffic and
drives until it finishes the road, collides, or times out.  Every
``step`` applies a parameterized action (Eq. 17), advances the world by
0.5 s (Eq. 18), and returns the next augmented state (Eqs. 15-16), the
hybrid reward (Eq. 28), and a :class:`StepRecord` with the raw
quantities the evaluation metrics aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perception.module import EnhancedPerception, PerceptionFrame
from ..perception.sensor import WorldArrays
from ..sim import constants
from ..sim.engine import SimulationEngine
from ..sim.road import Road
from ..sim.vehicle import Vehicle
from .pamdp import AugmentedState, ParameterizedAction
from .reward import HybridReward, RewardBreakdown, StepOutcome

__all__ = ["StepRecord", "EpisodeResult", "DrivingEnv",
           "build_step_outcome", "build_step_record"]


@dataclass(frozen=True)
class StepRecord:
    """Raw observations of one executed step (consumed by repro.eval)."""

    step: int
    av_velocity: float
    av_accel: float
    av_jerk: float
    ttc: float | None
    rear_velocity_drop: float | None
    impact_event: bool
    collided: bool
    reward: RewardBreakdown
    trailing_ids: tuple[str, ...]
    trailing_mean_velocity: float | None


@dataclass
class EpisodeResult:
    """Everything recorded over one episode."""

    records: list[StepRecord] = field(default_factory=list)
    finished: bool = False
    collided: bool = False
    steps: int = 0

    @property
    def total_reward(self) -> float:
        return sum(record.reward.total for record in self.records)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / max(len(self.records), 1)


def _fleet_attribute(name: str) -> property:
    """Read/write view of the wrapped fleet's attribute ``name``."""
    return property(lambda env: getattr(env.fleet, name),
                    lambda env, value: setattr(env.fleet, name, value))


class DrivingEnv:
    """Gym-style driving environment solving the paper's PAMDP.

    The one-AV view of :class:`~repro.decision.fleet.FleetEnv`: every
    call goes to a one-member fleet (``fleet``) and unpacks its
    ``"av"`` entries, so single-AV and fleet episodes run the same step.

    Parameters
    ----------
    perception:
        The enhanced perception module (or an ablated variant).
    reward:
        Hybrid reward function.
    road / density_per_km:
        Episode geometry and traffic volume.
    max_steps:
        Hard episode cap (guards against stalled policies).
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` applying
        actuator faults to every commanded action; it is reset with the
        episode seed on :meth:`reset` so fault realizations are
        reproducible per episode.  Sensor-side faults are wired by
        giving ``perception`` a
        :class:`~repro.faults.injector.FaultySensor` sharing the same
        injector.
    """

    AV_ID = "av"

    road = _fleet_attribute("road")
    density_per_km = _fleet_attribute("density_per_km")
    max_steps = _fleet_attribute("max_steps")
    reward = _fleet_attribute("reward")
    faults = _fleet_attribute("faults")

    def __init__(self, perception: EnhancedPerception,
                 reward: HybridReward | None = None,
                 road: Road | None = None,
                 density_per_km: float = constants.DENSITY_PER_KM,
                 max_steps: int = 2000,
                 faults=None) -> None:
        # Imported here: the fleet module builds on this module's records.
        from .fleet import FleetEnv

        self.fleet = FleetEnv([perception], reward=reward, road=road,
                              density_per_km=density_per_km,
                              max_steps=max_steps, faults=faults)

    @property
    def perception(self) -> EnhancedPerception:
        return self.fleet.perceptions[0]

    @perception.setter
    def perception(self, perception: EnhancedPerception) -> None:
        self.fleet.perceptions[0] = perception

    def reset(self, seed: int) -> AugmentedState:
        """Start a fresh seeded episode and return the initial state."""
        return self.fleet.reset(seed)[self.AV_ID]

    @property
    def engine(self) -> SimulationEngine | None:
        return self.fleet.engine

    @property
    def result(self) -> EpisodeResult:
        return self.fleet.results[self.AV_ID]

    @property
    def av(self) -> Vehicle | None:
        return self.fleet.av(self.AV_ID)

    @property
    def frame(self) -> PerceptionFrame | None:
        """The most recent perception frame (for policies that need it)."""
        return self.fleet.frame(self.AV_ID)

    def done(self) -> bool:
        return self.fleet.done()

    def step(self, action: ParameterizedAction
             ) -> tuple[AugmentedState | None, RewardBreakdown, bool, StepRecord]:
        """Apply one parameterized action and advance the world by 0.5 s."""
        states, breakdowns, done, records = self.fleet.step({self.AV_ID: action})
        return (states.get(self.AV_ID), breakdowns[self.AV_ID], done,
                records[self.AV_ID])


def build_step_outcome(engine: SimulationEngine, av: Vehicle | None,
                       collided: bool, accel: float, accel_prev: float,
                       rear_id: str | None, rear_v_before: float | None,
                       detection_range: float) -> StepOutcome:
    """Post-step reward inputs for one ego (shared by single-AV and fleet)."""
    front_gap = None
    closing = None
    if av is not None and av.vid in engine.vehicles:
        front = engine.leader_of(av)
        if front is not None and front.lon - av.lon <= detection_range:
            front_gap = av.gap_to(front)
            closing = av.v - front.v
    rear_v_next = None
    if rear_id is not None:
        rear_after = engine.vehicles.get(rear_id) or engine.retired.get(rear_id)
        if rear_after is not None:
            rear_v_next = rear_after.v
    return StepOutcome(
        collided=collided,
        ego_velocity_next=av.v if av is not None else 0.0,
        ego_accel=accel,
        ego_accel_prev=accel_prev,
        front_gap_next=front_gap,
        front_closing_speed=closing,
        rear_velocity_now=rear_v_before,
        rear_velocity_next=rear_v_next,
    )


def build_step_record(engine: SimulationEngine, av: Vehicle | None,
                      outcome: StepOutcome, breakdown: RewardBreakdown,
                      collided: bool, step: int,
                      velocity_threshold: float, world: WorldArrays
                      ) -> StepRecord:
    """Raw metric record for one executed step of one ego.

    ``world`` is the post-step snapshot, shared by every ego's record.
    Its rows follow insertion order, which fixes the summation order of
    ``trailing_mean_velocity``.
    """
    ttc = None
    if (outcome.front_gap_next is not None and outcome.front_closing_speed is not None
            and outcome.front_closing_speed > 0.0 and outcome.front_gap_next > 0.0):
        ttc = outcome.front_gap_next / outcome.front_closing_speed
    rear_drop = None
    impact_event = False
    if outcome.rear_velocity_now is not None and outcome.rear_velocity_next is not None:
        rear_drop = outcome.rear_velocity_now - outcome.rear_velocity_next
        impact_event = rear_drop > velocity_threshold

    # Trailing scan, vectorized: "behind > 0" excludes the ego itself
    # (and, exactly as the per-vehicle loop did, anything sharing its
    # longitude), so no explicit vid comparison is needed.
    trailing: list[str] = []
    velocities = np.zeros(0)
    if av is not None and av.vid in engine.vehicles:
        behind = av.lon - world.lon
        rows = np.flatnonzero((behind > 0.0) & (behind <= 100.0))
        trailing = [world.ids[row] for row in rows]
        velocities = world.v[rows]
    return StepRecord(
        step=step,
        av_velocity=av.v if av is not None else 0.0,
        av_accel=outcome.ego_accel,
        av_jerk=abs(outcome.ego_accel - outcome.ego_accel_prev),
        ttc=ttc,
        rear_velocity_drop=rear_drop,
        impact_event=impact_event,
        collided=collided,
        reward=breakdown,
        trailing_ids=tuple(sorted(trailing)),
        trailing_mean_velocity=(float(np.mean(velocities))
                                if len(velocities) else None),
    )
