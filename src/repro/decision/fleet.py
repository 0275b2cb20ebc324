"""Fleet driving environment: M HEAD agents sharing one engine.

:meth:`FleetEnv.step` is the one implementation of the paper's PAMDP
transition (Eqs. 17-18 plus the Eq. 28 reward); the single-AV
:class:`~repro.decision.environment.DrivingEnv` is a one-member fleet.
M autonomous vehicles drive one engine whose world is columns, and all
per-step fleet work becomes single stacked calls:

* **perception** -- each AV keeps its own tracker/phantom state
  (:class:`~repro.perception.module.EnhancedPerception`), but the M
  LST-GAT forwards collapse into one
  :meth:`~repro.perception.predictor.StatePredictor.predict_many` call
  over the concatenated graphs;
* **decision** -- :class:`FleetController` turns the M augmented states
  into one :meth:`~repro.decision.agents.PDQNAgent.act_batch` forward;
* **simulation** -- the engine advances everyone in one vectorized
  step, with AV-vs-AV lane-change conflicts arbitrated in canonical
  sorted-vid order (see :meth:`~repro.sim.engine.SimulationEngine.step`).

The M=1 contract: a one-AV episode reproduces the single-AV rollout
recorded before the fleet existed, bit for bit -- same engine world,
RNG stream, rewards, records and augmented states.
``tests/decision/test_fleet_equivalence.py`` replays that golden trace
through ``DrivingEnv`` and a one-AV ``FleetEnv``;
``tests/decision/test_single_av_contract.py`` pins a crashing episode
and a faulty one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perception.graph import build_graphs
from ..perception.module import EnhancedPerception, PerceptionFrame
from ..perception.sensor import WorldArrays
from ..sim import constants
from ..sim.engine import SimulationEngine
from ..sim.road import Road
from ..sim.spawn import build_fleet_episode, fleet_vids
from ..sim.vehicle import Vehicle
from .agents import PamdpAgent
from .environment import (EpisodeResult, StepRecord, build_step_outcome,
                          build_step_record)
from .pamdp import AugmentedState, ParameterizedAction, augmented_state_from_graph
from .reward import HybridReward, RewardBreakdown

__all__ = ["FleetStepRecord", "FleetEpisodeResult", "FleetEnv",
           "FleetController"]


@dataclass(frozen=True)
class FleetStepRecord:
    """One AV's step record plus the fleet-level disturbance context.

    ``rear_is_av`` classifies the rear vehicle whose slowdown the
    impact metrics attribute to this AV: AV-on-AV disturbance when the
    follower is a fleet member, AV-on-conventional otherwise.
    """

    vid: str
    record: StepRecord
    rear_id: str | None
    rear_is_av: bool
    collided_with_av: bool


@dataclass
class FleetEpisodeResult:
    """Everything recorded over one fleet episode."""

    av_ids: list[str]
    results: dict[str, EpisodeResult]
    fleet_records: list[FleetStepRecord] = field(default_factory=list)
    steps: int = 0

    @property
    def collisions(self) -> int:
        return sum(1 for result in self.results.values() if result.collided)

    @property
    def av_av_collisions(self) -> int:
        seen = {record.vid for record in self.fleet_records
                if record.collided_with_av}
        return len(seen)

    @property
    def finished(self) -> int:
        return sum(1 for result in self.results.values() if result.finished)

    @property
    def total_reward(self) -> float:
        return sum(result.total_reward for result in self.results.values())


class FleetEnv:
    """Gym-style environment driving an M-vehicle autonomous fleet.

    Parameters
    ----------
    perceptions:
        One :class:`EnhancedPerception` per AV (index 0 serves ``"av"``).
        All instances should share the same predictor so fleet
        perception runs as one stacked forward; per-AV trackers stay
        independent.
    reward / road / density_per_km / max_steps:
        As in :class:`DrivingEnv`; the reward is shared by every AV.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` applied
        to every commanded action, reset with the episode seed.  One
        AV only: the injector latches one vehicle's last command, so a
        fleet of two or more raises ``ValueError``.
    """

    def __init__(self, perceptions: list[EnhancedPerception],
                 reward: HybridReward | None = None,
                 road: Road | None = None,
                 density_per_km: float = constants.DENSITY_PER_KM,
                 max_steps: int = 2000,
                 faults=None) -> None:
        if not perceptions:
            raise ValueError("a fleet needs at least one perception module")
        if faults is not None and len(perceptions) > 1:
            raise ValueError("actuator faults need a one-AV fleet: the "
                             "injector latches one vehicle's last command")
        self.perceptions = list(perceptions)
        self.num_avs = len(self.perceptions)
        self.av_ids = fleet_vids(self.num_avs)
        self.reward = reward or HybridReward()
        self.road = road or Road()
        self.density_per_km = density_per_km
        self.max_steps = max_steps
        self.faults = faults
        self.engine: SimulationEngine | None = None
        self._begin_episode()

    def _begin_episode(self) -> None:
        self.results: dict[str, EpisodeResult] = {
            vid: EpisodeResult() for vid in self.av_ids}
        self.fleet_records: list[FleetStepRecord] = []
        self._frames: dict[str, PerceptionFrame] = {}
        self._done: dict[str, bool] = {vid: False for vid in self.av_ids}
        self._steps = 0

    # ------------------------------------------------------------------
    # episode control
    # ------------------------------------------------------------------
    def reset(self, seed: int) -> dict[str, AugmentedState]:
        """Start a fresh seeded fleet episode; initial state per AV."""
        self.engine, _ = build_fleet_episode(
            seed, road=self.road, density_per_km=self.density_per_km,
            num_avs=self.num_avs)
        if self.faults is not None:
            self.faults.reset(seed)
        for perception in self.perceptions:
            perception.reset()
        self._begin_episode()
        return self._perceive_active()

    def av(self, vid: str = "av") -> Vehicle | None:
        if self.engine is None:
            return None
        return self.engine.vehicles.get(vid)

    def frame(self, vid: str = "av") -> PerceptionFrame | None:
        """The most recent perception frame of one AV."""
        return self._frames.get(vid)

    def active_ids(self) -> list[str]:
        """Fleet members still driving, in canonical order."""
        return [vid for vid in self.av_ids if not self._done[vid]]

    def done(self) -> bool:
        return (self._steps >= self.max_steps
                or all(self._done.get(vid, True) for vid in self.av_ids))

    def result(self) -> FleetEpisodeResult:
        return FleetEpisodeResult(av_ids=list(self.av_ids),
                                  results=self.results,
                                  fleet_records=self.fleet_records,
                                  steps=self._steps)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, actions: dict[str, ParameterizedAction]
             ) -> tuple[dict[str, AugmentedState], dict[str, RewardBreakdown],
                        bool, dict[str, StepRecord]]:
        """Apply every active AV's action and advance the world by 0.5 s.

        ``actions`` must cover exactly the :meth:`active_ids`.  Returns
        per-AV next states (empty when the fleet is done), reward
        breakdowns, the fleet-level done flag, and the per-AV records.
        """
        if self.engine is None:
            raise RuntimeError("call reset() before step()")
        if self.done():
            raise RuntimeError("episode is over; call reset()")
        engine = self.engine
        active = self.active_ids()
        missing = [vid for vid in active if vid not in actions]
        if missing:
            raise ValueError(f"missing actions for active AVs: {missing}")
        av_set = set(self.av_ids)
        perceptions = dict(zip(self.av_ids, self.perceptions))

        # Phase 1 (canonical order): pre-step context + maneuver commands.
        pre: dict[str, tuple] = {}
        for vid in active:
            action = actions[vid]
            if self.faults is not None:
                action = self.faults.filter_action(action)
            vehicle = engine.get(vid)
            rear_before = engine.follower_of(vehicle)
            rear_id = rear_before.vid if rear_before is not None else None
            rear_v_before = rear_before.v if rear_before is not None else None
            rear_is_av = rear_id in av_set
            pre[vid] = (action, vehicle.accel, rear_id, rear_v_before, rear_is_av)
            engine.set_maneuver(vid, action.lane_delta, action.accel)

        events = engine.step()
        self._steps += 1

        # Phase 2: outcomes for every AV against the intact post-step
        # world -- crashed AVs are only discarded afterwards so no AV's
        # reward depends on its position in the canonical order.
        breakdowns: dict[str, RewardBreakdown] = {}
        records: dict[str, StepRecord] = {}
        crashed: list[str] = []
        world = WorldArrays.from_engine(engine)
        for vid in active:
            action, accel_prev, rear_id, rear_v_before, rear_is_av = pre[vid]
            collided = any(event.vehicle_id == vid or event.other_id == vid
                           for event in events)
            finished = vid not in engine.vehicles and not collided
            av_after = engine.vehicles.get(vid) or engine.retired.get(vid)
            outcome = build_step_outcome(
                engine, av_after, collided, action.accel, accel_prev,
                rear_id, rear_v_before,
                perceptions[vid].sensor.detection_range)
            breakdown = self.reward.compute(outcome)
            record = build_step_record(engine, av_after, outcome, breakdown,
                                       collided, self._steps,
                                       self.reward.velocity_threshold,
                                       world)
            result = self.results[vid]
            result.records.append(record)
            result.steps = self._steps
            result.collided = collided
            result.finished = finished
            self._done[vid] = (collided or finished
                               or self._steps >= self.max_steps)
            collided_with_av = any(
                (event.vehicle_id == vid and event.other_id in av_set)
                or (event.other_id == vid and event.vehicle_id in av_set)
                for event in events)
            self.fleet_records.append(FleetStepRecord(
                vid=vid, record=record, rear_id=rear_id,
                rear_is_av=rear_is_av, collided_with_av=collided_with_av))
            breakdowns[vid] = breakdown
            records[vid] = record
            if collided and vid in engine.vehicles:
                crashed.append(vid)

        # Phase 3: while the episode goes on, crashed AVs leave the world
        # (not "retired" -- they did not finish) and survivors keep
        # driving around the wreck site.  An episode that is over keeps
        # the world its last step left, wreck included.  The records'
        # snapshot serves the next perception unless a wreck left.
        done = self.done()
        next_states: dict[str, AugmentedState] = {}
        if not done:
            if crashed:
                engine.discard_vehicles(crashed)
                world = WorldArrays.from_engine(engine)
            next_states = self._perceive_active(world)
        return next_states, breakdowns, done, records

    # ------------------------------------------------------------------
    # batched perception
    # ------------------------------------------------------------------
    def _perceive_active(self, world: WorldArrays | None = None
                         ) -> dict[str, AugmentedState]:
        """One perception cycle for every active AV, one stacked forward.

        Per-AV sensing/graph assembly runs in canonical order (each AV
        owns its tracker state) against ``world``, a snapshot of the
        engine as it stands (taken here when not given); the M predictor
        forwards collapse into a single ``predict_many`` call over the
        concatenated graphs -- bit-identical per AV to a single-ego
        :meth:`~repro.perception.module.EnhancedPerception.perceive`.
        """
        engine = self.engine
        if world is None:
            world = WorldArrays.from_engine(engine)
        perceptions = dict(zip(self.av_ids, self.perceptions))
        active = self.active_ids()
        scenes = []
        for vid in active:
            scenes.append(perceptions[vid].observe_scene(
                vid, engine.get(vid).state, world, engine.road))
        graphs = build_graphs(scenes, engine.road)
        predictor = self.perceptions[0].predictor
        if predictor is not None:
            predictions = predictor.predict_many(graphs)
        else:
            predictions = [np.zeros((6, 3)) for _ in graphs]
        states: dict[str, AugmentedState] = {}
        for vid, scene, graph, prediction in zip(active, scenes, graphs,
                                                 predictions):
            self._frames[vid] = PerceptionFrame(scene=scene, graph=graph,
                                                prediction=prediction)
            states[vid] = augmented_state_from_graph(graph, prediction)
        return states


class FleetController:
    """Batched fleet policy: one ``act_batch`` forward for all M AVs.

    Wraps a trained :class:`~repro.decision.agents.PamdpAgent`; per-AV
    greedy actions come out of a single stacked x-net + Q-net forward,
    bit-identical per state to the scalar ``act(state, explore=False)``.
    """

    def __init__(self, agent: PamdpAgent, name: str = "HEAD-fleet") -> None:
        self.agent = agent
        self.name = name

    def select_actions(self, states: dict[str, AugmentedState]
                       ) -> dict[str, ParameterizedAction]:
        if not states:
            return {}
        vids = list(states)
        actions = self.agent.act_batch([states[vid] for vid in vids],
                                       explore=False)
        return dict(zip(vids, actions))
